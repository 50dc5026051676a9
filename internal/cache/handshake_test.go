package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"respectorigin/internal/certs"
)

// replacedSequence is the hand-written call sequence Handshake replaced,
// in the interleaving core's recorded-page replay used (token redeemed
// before the ticket is minted; browser and cdn minted the ticket first).
// The three stores are independent, so either interleaving must leave
// every store's accounting where Handshake leaves it.
func replacedSequence(c *Cache, host, issuer string, sans []string, proto int) Handshake {
	var h Handshake
	if c.RedeemTicketProto(host, proto) {
		h.Resumed = true
		if proto == ProtoWireH3 {
			h.TokenHit = c.RedeemToken(host, proto)
		}
	} else {
		h.MemoHit = c.ValidateChain(issuer, sans)
		if proto == ProtoWireH3 {
			h.TokenHit = c.RedeemToken(host, proto)
		}
	}
	c.StoreTicketProto(sans, proto)
	if proto == ProtoWireH3 {
		c.StoreToken(sans, proto)
	}
	return h
}

func TestHandshakeMatchesReplacedCallSequence(t *testing.T) {
	sanLists := [][]string{
		{"www.a.example", "static.a.example"},
		{"*.b.example", "b.example"},
		{"cdn.shared.example", "www.a.example"}, // overlaps the first certificate
		{"solo.example"},
	}
	hosts := []string{"www.a.example", "static.a.example", "img.b.example", "b.example", "cdn.shared.example", "solo.example"}
	coveredBy := func(host string, rng *rand.Rand) []string {
		for {
			if sans := sanLists[rng.Intn(len(sanLists))]; certs.Covers(sans, host) {
				return sans
			}
		}
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"defaults", Options{}},
		{"tickets-disabled", Options{TicketLifetimeSeconds: TicketsDisabled}},
		{"tokens-disabled", Options{TokenLifetimeSeconds: TicketsDisabled}},
		{"single-use", Options{SingleUseTickets: true}},
		{"short-lived", Options{TicketLifetimeSeconds: 30, TokenLifetimeSeconds: 90}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := New(tc.opts), New(tc.opts)
			rng := rand.New(rand.NewSource(42))
			for step := 0; step < 4000; step++ {
				if rng.Intn(8) == 0 {
					d := int64(rng.Intn(40_000))
					got.Clock().AdvanceMs(d)
					want.Clock().AdvanceMs(d)
				}
				host := hosts[rng.Intn(len(hosts))]
				sans := coveredBy(host, rng)
				issuer := fmt.Sprintf("CA-%d", rng.Intn(2))
				proto := ProtoWireH1 + rng.Intn(3)
				g := got.Handshake(host, issuer, sans, proto)
				w := replacedSequence(want, host, issuer, sans, proto)
				if g != w {
					t.Fatalf("step %d (%s, proto %d): Handshake %+v, call sequence %+v", step, host, proto, g, w)
				}
				if g.TokenHit && proto != ProtoWireH3 {
					t.Fatalf("step %d: token hit under wire protocol %d", step, proto)
				}
			}
			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("per-store stats diverged:\n got %+v\nwant %+v", g, w)
			}
			if s := got.Stats(); s.TicketHits+s.TicketMisses+s.TokenHits+s.TokenMisses == 0 || s.ChainHits+s.ChainMisses == 0 {
				t.Fatalf("schedule exercised no store: %+v", s)
			}
		})
	}

	var off *Cache
	if h := off.Handshake("www.a.example", "CA", sanLists[0], ProtoWireH3); h != (Handshake{}) || h.ZeroRTT() {
		t.Fatalf("nil cache handshake = %+v, want the cold zero value", h)
	}
}
