package browser

import (
	"testing"

	"respectorigin/internal/cache"
)

// Warm state minted under one protocol must not warm another: an h2
// visit's session ticket never produces an h3 resumption (let alone a
// 0-RTT one), and an h3 visit's ticket and address token never warm a
// later h2 client. Fresh browsers share one cache, the returning-
// visitor setup.
func TestH2TicketDoesNotProduceH3ZeroRTT(t *testing.T) {
	cc := cache.New(cache.Options{})

	h2 := New(PolicyFirefoxOrigin)
	h2.Cache = cc
	if out := h2.Request(twoHostEnv(), "www.example.com"); !out.NewConnection() || out.Handshake.Resumed {
		t.Fatalf("h2 cold visit: %+v", out)
	}

	// Returning visitor speaks h3: the h2 ticket must not match, so the
	// first h3 connection is a full handshake with address validation.
	h3 := &Browser{Policy: PolicyFirefoxOrigin, Proto: ProtoH3}
	h3.Cache = cc
	out := h3.Request(twoHostEnv(), "www.example.com")
	if !out.NewConnection() {
		t.Fatalf("h3 visit reused a connection: %+v", out)
	}
	if out.Handshake.Resumed {
		t.Fatal("h2 ticket produced an h3 resumption")
	}
	if out.Handshake.TokenHit {
		t.Fatalf("h2 warm state produced h3 0-RTT state: %+v", out)
	}

	// A second h3 visitor finds the h3 ticket and token the first one
	// minted: resumed with a token hit is exactly 0-RTT.
	h3b := &Browser{Policy: PolicyFirefoxOrigin, Proto: ProtoH3}
	h3b.Cache = cc
	out = h3b.Request(twoHostEnv(), "www.example.com")
	if !out.Handshake.ZeroRTT() {
		t.Fatalf("h3 revisit not 0-RTT: %+v", out)
	}

	// The reverse direction, against a cache holding only h3 state
	// (the shared cache above still carries the first visit's live h2
	// ticket, which would legitimately resume): an h3 visit's ticket
	// and token warm no h2 client.
	cc3 := cache.New(cache.Options{})
	h3c := &Browser{Policy: PolicyFirefoxOrigin, Proto: ProtoH3}
	h3c.Cache = cc3
	if out := h3c.Request(twoHostEnv(), "www.example.com"); !out.NewConnection() {
		t.Fatalf("h3 cold visit: %+v", out)
	}
	h2b := New(PolicyFirefoxOrigin)
	h2b.Cache = cc3
	out = h2b.Request(twoHostEnv(), "www.example.com")
	if out.Handshake.Resumed {
		t.Fatal("h3 ticket produced an h2 resumption")
	}
	if out.Handshake.TokenHit {
		t.Fatalf("h2 outcome carries h3 fields: %+v", out)
	}
}
