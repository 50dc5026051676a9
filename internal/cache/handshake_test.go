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
// every store where Handshake leaves it.
func replacedSequence(c *Cache, host, issuer string, sans []string, proto int) Handshake {
	var h Handshake
	now := c.clock.nowMs()
	if c.RedeemTicketProto(host, proto) {
		h.Resumed = true
		if proto == ProtoWireH3 {
			h.TokenHit = c.tokens.s.redeem(host, proto, now)
		}
	} else {
		h.MemoHit = c.chains.validate(issuer, sans)
		if proto == ProtoWireH3 {
			h.TokenHit = c.tokens.s.redeem(host, proto, now)
		}
	}
	c.StoreTicketProto(sans, proto)
	if proto == ProtoWireH3 {
		c.tokens.s.store(sans, proto, now)
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
		{"short-lived", Options{TicketLifetimeSeconds: 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := New(tc.opts), New(tc.opts)
			rng := rand.New(rand.NewSource(42))
			var resumed, validated, tokens int
			for step := 0; step < 4000; step++ {
				if rng.Intn(8) == 0 {
					d := int64(rng.Intn(40_000))
					got.Clock().AdvanceMs(d)
					want.Clock().AdvanceMs(d)
				}
				host := hosts[rng.Intn(len(hosts))]
				sans := coveredBy(host, rng)
				issuer := fmt.Sprintf("CA-%d", rng.Intn(2))
				proto := protoWireH1 + rng.Intn(3)
				g := got.Handshake(host, issuer, sans, proto)
				w := replacedSequence(want, host, issuer, sans, proto)
				if g != w {
					t.Fatalf("step %d (%s, proto %d): Handshake %+v, call sequence %+v", step, host, proto, g, w)
				}
				if g.TokenHit && proto != ProtoWireH3 {
					t.Fatalf("step %d: token hit under wire protocol %d", step, proto)
				}
				if g.Resumed {
					resumed++
				} else {
					validated++
				}
				if g.TokenHit {
					tokens++
				}
				if got.tickets.s.len() != want.tickets.s.len() || got.tokens.s.len() != want.tokens.s.len() || got.chains.len() != want.chains.len() {
					t.Fatalf("step %d: stores diverged: tickets %d/%d, tokens %d/%d, chains %d/%d", step,
						got.tickets.s.len(), want.tickets.s.len(), got.tokens.s.len(), want.tokens.s.len(), got.chains.len(), want.chains.len())
				}
			}
			if validated == 0 || tokens == 0 || (resumed == 0 && got.tickets.s.enabled()) {
				t.Fatalf("schedule exercised too little: %d resumed, %d validated, %d token hits", resumed, validated, tokens)
			}
		})
	}

	var off *Cache
	if h := off.Handshake("www.a.example", "CA", sanLists[0], ProtoWireH3); h != (Handshake{}) || h.ZeroRTT() {
		t.Fatalf("nil cache handshake = %+v, want the cold zero value", h)
	}
}

// len reports how many distinct chains have been validated.
func (m *certMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.seen)
}
