package loadgen

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"respectorigin/internal/browser"
	"respectorigin/internal/lazyrand"
	"respectorigin/internal/netsim"
)

// A worker lends one userScratch to every user it simulates. Whatever
// the previous user left in the two streams — a handful of draws or a
// few hundred — and in the browser pool and warm-path cache, the next
// one must see exactly what a scratch built for it alone would give, in
// any order of users.
func TestScratchReuseMatchesFresh(t *testing.T) {
	cfg := testConfig()
	cfg.Users = 1500
	cfg = cfg.withDefaults()
	arrivals := cfg.arrivalTimes()
	env := buildCDN(cfg)
	shared := newUserScratch(cfg)
	for _, uid := range rand.New(rand.NewSource(1)).Perm(cfg.Users) {
		got := simulateUser(cfg, env, shared, uid, arrivals[uid])
		want := simulateUser(cfg, env, newUserScratch(cfg), uid, arrivals[uid])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %d on a shared scratch:\n got %+v\nwant %+v", uid, got, want)
		}
	}
}

// A user's random state, browser and cache are the worker's, reseeded
// and reset: simulating a user allocates its visits, its zone's name,
// the answers the CDN resolves for it and the connections that replace
// churned ones, but no generator, pool or cache. Measured 643 B
// in 7.5 allocations per user (709 B in 8.2 under -race); a browser
// and cache built per user again cost 2 358 B in 28.3, and one 4.9 KB
// math/rand register per user would triple that.
func TestSimulateUserAllocBudget(t *testing.T) {
	const bytesBudget, allocsBudget = 800, 9
	cfg := testConfig()
	cfg.Users = 2000
	cfg = cfg.withDefaults()
	arrivals := cfg.arrivalTimes()
	env := buildCDN(cfg)
	sc := newUserScratch(cfg)
	pass := func() {
		for uid := 0; uid < cfg.Users; uid++ {
			simulateUser(cfg, env, sc, uid, arrivals[uid])
		}
	}
	pass() // the CDN's lazily built answers are not any user's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Users)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(cfg.Users)
	if bytes > bytesBudget || allocs > allocsBudget {
		t.Errorf("simulateUser allocates %.0f B in %.1f allocations per user, want ≤ %d B and ≤ %d", bytes, allocs, bytesBudget, allocsBudget)
	} else {
		t.Logf("%.0f B in %.1f allocations per user", bytes, allocs)
	}
}

// Every fresh connection is charged exactly its netsim.Setup price on
// top of the request itself: a resumed h1/h2 handshake presents no
// chain, so it pays no certificate verification.
func TestFreshConnectionChargesItsSetupPrice(t *testing.T) {
	p := netsim.DefaultParams()
	p.JitterMs = 0
	request := requestTime(lazyrand.New(1), netsim.New(p, 1))
	cases := []struct {
		out   browser.Outcome
		setup netsim.Setup
	}{
		{browser.Outcome{NewConnection: true, ResumedTLS: true}, netsim.Setup{Resumed: true}},
		{browser.Outcome{NewConnection: true}, netsim.Setup{SANs: 2}},
		{browser.Outcome{NewConnection: true, Proto: browser.ProtoH3}, netsim.Setup{QUIC: true, SANs: 1}},
		{browser.Outcome{NewConnection: true, Proto: browser.ProtoH3, ResumedTLS: true, AddrTokenHit: true, ZeroRTT: true},
			netsim.Setup{QUIC: true, Resumed: true, TokenHit: true}},
	}
	for _, c := range cases {
		var v visit
		accountRequest(c.out, lazyrand.New(1), netsim.New(p, 1), &v)
		if want := p.SetupMs(c.setup) + request; v.ClientMs != want {
			t.Errorf("%+v: charged %v ms, want setup %v + request %v", c.setup, v.ClientMs, p.SetupMs(c.setup), request)
		}
	}
}
