package quic

import (
	"testing"

	"respectorigin/internal/cache"
)

func TestEstablishWarmPath(t *testing.T) {
	sans := []string{"www.example.com", "cdn.example.com"}
	c := cache.New(cache.Options{})

	// Cold: nothing to redeem, but the handshake mints ticket + token.
	h := Establish(c, "www.example.com", sans)
	if h.Resumed || h.TokenHit {
		t.Fatalf("cold establish: %+v, want neither resumed nor token", h)
	}
	// Warm revisit to a *different* covered hostname: cross-hostname
	// resumption and shared address validation both apply.
	h = Establish(c, "cdn.example.com", sans)
	if !h.Resumed || !h.TokenHit || !h.ZeroRTT() {
		t.Fatalf("warm establish: %+v, want 0-RTT via shared SAN coverage", h)
	}
	// A hostname outside the coverage gets nothing.
	h = Establish(c, "other.example.org", []string{"other.example.org"})
	if h.Resumed || h.TokenHit {
		t.Fatalf("uncovered establish: %+v, want cold", h)
	}
}

func TestEstablishNilCacheIsCold(t *testing.T) {
	if h := Establish(nil, "www.example.com", []string{"www.example.com"}); h != (cache.Handshake{}) {
		t.Fatalf("nil-cache establish: %+v, want the cold handshake", h)
	}
}
