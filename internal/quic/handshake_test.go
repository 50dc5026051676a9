package quic

import (
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/netsim"
)

func TestPathRTTs(t *testing.T) {
	cases := []struct {
		path    Path
		rtts    float64
		zeroRTT bool
	}{
		{Path{Resumed: true, TokenHit: true}, 0, true},
		{Path{Resumed: true, TokenHit: false}, 2, false},
		{Path{Resumed: false, TokenHit: true}, 1, false},
		{Path{Resumed: false, TokenHit: false}, 2, false},
	}
	for _, c := range cases {
		if got := c.path.RTTs(); got != c.rtts {
			t.Errorf("%+v: RTTs = %v, want %v", c.path, got, c.rtts)
		}
		if got := c.path.ZeroRTT(); got != c.zeroRTT {
			t.Errorf("%+v: ZeroRTT = %v, want %v", c.path, got, c.zeroRTT)
		}
	}
}

func TestEstablishWarmPath(t *testing.T) {
	sans := []string{"www.example.com", "cdn.example.com"}
	c := cache.New(cache.Options{})

	// Cold: nothing to redeem, but the handshake mints ticket + token.
	p := Establish(c, "www.example.com", sans)
	if p.Resumed || p.TokenHit {
		t.Fatalf("cold establish: path %+v, want neither resumed nor token", p)
	}
	// Warm revisit to a *different* covered hostname: cross-hostname
	// resumption and shared address validation both apply.
	p = Establish(c, "cdn.example.com", sans)
	if !p.Resumed || !p.TokenHit || !p.ZeroRTT() {
		t.Fatalf("warm establish: path %+v, want 0-RTT via shared SAN coverage", p)
	}
	// A hostname outside the coverage gets nothing.
	p = Establish(c, "other.example.org", []string{"other.example.org"})
	if p.Resumed || p.TokenHit {
		t.Fatalf("uncovered establish: path %+v, want cold", p)
	}
}

func TestEstablishNilCacheIsCold(t *testing.T) {
	p := Establish(nil, "www.example.com", []string{"www.example.com"})
	if p.Resumed || p.TokenHit || p.RTTs() != 2 {
		t.Fatalf("nil-cache establish: %+v (RTTs %v), want cold 2-RTT path", p, p.RTTs())
	}
}

func TestHandshakeTimeStreamContract(t *testing.T) {
	// Every path consumes exactly one jitter draw: after pricing any
	// path, the next draw from an identically-seeded network matches.
	paths := []Path{
		{Resumed: true, TokenHit: true},
		{Resumed: true, TokenHit: false},
		{Resumed: false, TokenHit: true},
		{Resumed: false, TokenHit: false},
	}
	params := netsim.DefaultParams()
	var wantNext float64
	for i, p := range paths {
		n := netsim.New(params, 42)
		p.HandshakeTime(n, 3)
		next := n.Float64()
		if i == 0 {
			wantNext = next
			continue
		}
		if next != wantNext {
			t.Fatalf("path %+v consumed a different number of draws (next draw %v, want %v)",
				p, next, wantNext)
		}
	}

	// 0-RTT is free of round trips; the retry path pays two.
	noJitter := params
	noJitter.JitterMs = 0
	n := netsim.New(noJitter, 1)
	if d := (Path{Resumed: true, TokenHit: true}).HandshakeTime(n, 0); d != 0 {
		t.Fatalf("0-RTT handshake time = %v, want 0", d)
	}
	if d := (Path{}).HandshakeTime(n, 0); d != 2*noJitter.RTTMs+noJitter.CertVerifyMs {
		t.Fatalf("cold handshake time = %v, want %v", d, 2*noJitter.RTTMs+noJitter.CertVerifyMs)
	}
}
