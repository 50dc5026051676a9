package browser

import (
	"testing"

	"respectorigin/internal/cache"
)

// An uncredentialed request is its own partition: it never rides the
// pool, nothing rides its connection, and the pool caps never see it,
// yet it shares the DNS cache and ticket store with the credentialed
// pool. Each case runs under Chromium and under Firefox+ORIGIN over
// originEnv, where www's connection covers third and lists it in its
// origin set.
func TestRequestAnonymous(t *testing.T) {
	const www, third = "www.example.com", "third.cdnshared.com"
	type step struct {
		host      string
		anonymous bool
	}
	cases := []struct {
		name  string
		b     func(Policy) *Browser
		steps []step // the last step's outcome is checked
		check func(*Browser, Outcome) bool
	}{
		{name: "after a credentialed connection to the same host",
			b:     New,
			steps: []step{{www, false}, {www, true}},
			check: func(b *Browser, o Outcome) bool {
				return o.Reason == reasonNewAnonymous && o.DNSQueries == 1 &&
					len(b.Conns()) == 1 && b.TotalNewConn == 2 && b.TotalReused == 0
			}},
		{name: "where a credentialed request would coalesce",
			b:     New,
			steps: []step{{www, false}, {third, true}},
			check: func(b *Browser, o Outcome) bool {
				return o.Reason == reasonNewAnonymous && !o.Coalesced() && o.ConnHost == third && len(b.Conns()) == 1
			}},
		{name: "a credentialed request after an anonymous one",
			b:     New,
			steps: []step{{www, true}, {www, false}},
			check: func(b *Browser, o Outcome) bool {
				return o.Reason == reasonNewFirst && len(b.Conns()) == 1
			}},
		{name: "at the pool caps",
			b: func(p Policy) *Browser {
				return &Browser{Policy: p, MaxConns: 1, MaxConnsPerHost: 1}
			},
			steps: []step{{www, false}, {www, true}, {third, true}},
			check: func(b *Browser, o Outcome) bool {
				return o.Reason == reasonNewAnonymous && b.TotalEvicted == 0 &&
					len(b.Conns()) == 1 && b.Conns()[0].Host == www && b.TotalReused == 0
			}},
		{name: "with a cache",
			b: func(p Policy) *Browser {
				return &Browser{Policy: p, Cache: cache.New(cache.Options{})}
			},
			// The second anonymous request finds third's answer in the
			// DNS cache, and resumes the ticket of www's certificate,
			// which covers third.
			steps: []step{{www, false}, {third, true}, {third, true}},
			check: func(b *Browser, o Outcome) bool {
				return o.Reason == reasonNewAnonymous && o.DNSQueries == 0 && o.DNSCacheHits == 1 &&
					o.Handshake.Resumed
			}},
	}
	for _, c := range cases {
		for _, p := range []Policy{PolicyChromium, PolicyFirefoxOrigin} {
			b, env := c.b(p), &ttlEnv{ttl: 300, fakeEnv: *originEnv()}
			var out Outcome
			for _, s := range c.steps {
				if s.anonymous {
					out = b.RequestAnonymous(env, s.host)
				} else {
					out = b.Request(env, s.host)
				}
			}
			if out.Reused() || !c.check(b, out) {
				t.Errorf("%s under %v: %+v (pool %d conns, totals %+v)", c.name, p, out, len(b.Conns()), b.Totals)
			}
		}
	}
}
