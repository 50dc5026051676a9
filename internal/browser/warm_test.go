package browser

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"respectorigin/internal/cache"
)

// ttlEnv wraps fakeEnv with a TTLLookuper so cache-carrying browsers
// exercise the TTL-honoring path.
type ttlEnv struct {
	fakeEnv
	ttl        uint32
	ttlLookups int
}

func (f *ttlEnv) LookupTTL(host string) ([]netip.Addr, uint32, error) {
	f.ttlLookups++
	f.lookups++
	return f.answers[host], f.ttl, nil
}

func warmEnv() *ttlEnv {
	return &ttlEnv{
		ttl: 300,
		fakeEnv: fakeEnv{
			answers: map[string][]netip.Addr{
				"www.example.com":    {ip("192.0.2.1")},
				"static.example.com": {ip("192.0.2.2")},
			},
			sans: map[string][]string{
				"www.example.com":    {"www.example.com", "static.example.com"},
				"static.example.com": {"www.example.com", "static.example.com"},
			},
		},
	}
}

// A browser's options are its exported fields: New(p) is the struct
// literal with only the policy set, so assigning fields after New and
// writing them in a literal configure the same browser.
func TestOptionsConfigureBrowser(t *testing.T) {
	if plain := New(PolicyChromium); !reflect.DeepEqual(plain, &Browser{Policy: PolicyChromium}) {
		t.Fatalf("New changed defaults: %+v", plain)
	}
}

func TestWarmVisitServesDNSFromCache(t *testing.T) {
	c := cache.New(cache.Options{})
	env := warmEnv()
	b := &Browser{Policy: PolicyFirefox, Cache: c}

	first := b.Request(env, "www.example.com")
	if first.DNSQueries != 1 || first.DNSCacheHits != 0 {
		t.Fatalf("cold visit: %+v, want one real query", first)
	}
	if env.ttlLookups != 1 {
		t.Fatal("cache-carrying browser must use the TTLLookuper path")
	}

	b.Reset() // new browsing session; the cache survives
	second := b.Request(env, "www.example.com")
	if second.DNSQueries != 0 || second.DNSCacheHits != 1 {
		t.Fatalf("warm visit: %+v, want zero queries and one cache hit", second)
	}
	if env.lookups != 1 {
		t.Fatalf("env lookups = %d, warm visit must not touch the wire", env.lookups)
	}

	// Past the TTL the cache must re-query.
	c.Clock().AdvanceMs(300_000)
	b.Reset()
	third := b.Request(env, "www.example.com")
	if third.DNSQueries != 1 || third.DNSCacheHits != 0 {
		t.Fatalf("expired visit: %+v, want a real query", third)
	}
}

func TestWarmVisitResumesTLS(t *testing.T) {
	c := cache.New(cache.Options{})
	env := warmEnv()
	b := &Browser{Policy: PolicyFirefox, Cache: c}

	first := b.Request(env, "www.example.com")
	if !first.NewConnection() || first.Handshake != (cache.Handshake{}) {
		t.Fatalf("cold visit: %+v, want a full handshake that validates the chain", first)
	}

	b.Reset()
	second := b.Request(env, "www.example.com")
	// A resumed handshake is still a new connection, never coalescing
	// reuse.
	if !second.NewConnection() || !second.Handshake.Resumed {
		t.Fatalf("warm visit: %+v, want ticket resumption", second)
	}
	// Totals are per-session (Reset zeroed the cold visit's): the warm
	// session resumed once, and a resumed handshake validates nothing.
	if second.Handshake.MemoHit || b.TotalResumed != 1 {
		t.Fatalf("handshake=%+v resumed=%d, resumption must skip validation",
			second.Handshake, b.TotalResumed)
	}
}

func TestTicketResumesAcrossHostnames(t *testing.T) {
	// The www certificate covers static too; its ticket resumes a
	// connection to static even under Chromium, which never coalesces
	// the two (arXiv:1902.02531 resumption-across-hostnames).
	c := cache.New(cache.Options{})
	env := warmEnv()
	b := &Browser{Policy: PolicyChromium, Cache: c}

	b.Request(env, "www.example.com")
	second := b.Request(env, "static.example.com")
	if !second.NewConnection() || !second.Handshake.Resumed {
		t.Fatalf("chromium coalesced, or cross-host resumption failed: %+v", second)
	}
}

func TestCertMemoSkipsRepeatValidation(t *testing.T) {
	// With tickets disabled every connection does a full handshake, but
	// the second handshake over the same chain hits the memo.
	c := cache.New(cache.Options{TicketLifetimeSeconds: cache.TicketsDisabled})
	env := warmEnv()
	b := &Browser{Policy: PolicyChromium, Cache: c}

	first := b.Request(env, "www.example.com")
	second := b.Request(env, "static.example.com")
	if first.Handshake.Resumed || second.Handshake.Resumed {
		t.Fatal("tickets are disabled; nothing may resume")
	}
	if first.Handshake.MemoHit || !second.Handshake.MemoHit {
		t.Fatalf("memo: first=%+v second=%+v, want hit only on repeat chain", first, second)
	}
}

func TestNegativeCacheShortCircuitsRetries(t *testing.T) {
	c := cache.New(cache.Options{})
	env := &failingEnv{fakeEnv: fakeEnv{answers: map[string][]netip.Addr{}}}
	env.dnsFailures = 10
	b := &Browser{Policy: PolicyFirefox, MaxRetries: 1, RetryBackoffMs: 100, Cache: c}

	first := b.Request(env, "down.example")
	if first.Err == nil || first.DNSQueries != 2 {
		t.Fatalf("cold failure: %+v, want 2 attempts (1 retry)", first)
	}
	wireQueries := env.lookups

	second := b.Request(env, "down.example")
	if !errors.Is(second.Err, errNegativeCache) {
		t.Fatalf("err = %v, want ErrNegativeCache", second.Err)
	}
	if !second.NegCacheHit || second.DNSQueries != 0 || second.Retries != 0 {
		t.Fatalf("warm failure: %+v, want instant negative-cache answer", second)
	}
	if env.lookups != wireQueries {
		t.Fatal("negative-cache hit must not touch the wire")
	}
}

func TestCachelessBrowserUnchanged(t *testing.T) {
	// Without a cache the TTLLookuper path must not be taken and no
	// warm-path accounting may move.
	env := warmEnv()
	b := New(PolicyFirefox)
	outs := []Outcome{b.Request(env, "www.example.com"), b.Request(env, "www.example.com")}
	if env.ttlLookups != 0 {
		t.Fatalf("ttlLookups = %d, cacheless browser must call Lookup", env.ttlLookups)
	}
	for _, out := range outs {
		if out.DNSCacheHits != 0 || out.NegCacheHit || out.Handshake != (cache.Handshake{}) {
			t.Fatalf("warm-path accounting moved without a cache: %+v", out)
		}
	}
	if b.TotalResumed != 0 {
		t.Fatal("a cacheless browser resumed a session")
	}
	if !outs[0].NewConnection() || outs[1].NewConnection() {
		t.Fatalf("outcomes %+v, want one new connection (one validation)", outs)
	}
}

// A DNS cache hit is the cache's own storage; the pool must never keep
// it. A connection opened on a hit copies the answer into Available, so
// the connection's addresses survive whatever the cache later stores
// into, or resets, that storage.
func TestPoolNeverRetainsCacheStorage(t *testing.T) {
	for _, p := range []Policy{PolicyChromium, PolicyFirefox, PolicyFirefoxOrigin} {
		c := cache.New(cache.Options{})
		env := warmEnv()
		env.answers["www.example.com"] = []netip.Addr{ip("192.0.2.1"), ip("192.0.2.3")}
		b := &Browser{Policy: p, Cache: c}
		b.Request(env, "www.example.com")
		b.Reset()
		if out := b.Request(env, "www.example.com"); out.DNSCacheHits != 1 || !out.NewConnection() {
			t.Fatalf("%v: %+v, want a connection opened on a DNS cache hit", p, out)
		}
		hit, _, _ := c.LookupDNS("www.example.com")
		conn := b.Conns()[0]
		want := append([]netip.Addr(nil), conn.Available...)
		if &conn.Available[0] == &hit[0] {
			t.Fatalf("%v: Available aliases the cache's answer", p)
		}
		// Fill the LRU past its 4096-entry capacity: www's entry is
		// evicted and the last answer stored reuses its storage.
		for i := 0; i <= 4096; i++ {
			c.PutDNS(fmt.Sprintf("static%d.example.com", i), []netip.Addr{ip("198.51.100.1"), ip("198.51.100.4")}, 300)
		}
		c.Reset()
		c.PutDNS("other.example.com", []netip.Addr{ip("198.51.100.2"), ip("198.51.100.3")}, 300)
		if got := conn.Available; len(got) != len(want) || got[0] != want[0] || got[len(got)-1] != want[len(want)-1] {
			t.Fatalf("%v: Available changed from %v to %v when the cache reused its storage", p, want, got)
		}
	}
}
