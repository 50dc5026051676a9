package dns

import (
	"net/netip"
	"testing"

	"respectorigin/internal/cache"
)

func TestLookupUnifiedSurface(t *testing.T) {
	a := NewAuthority()
	a.AddA("www.example.com", netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"))
	r := NewResolver(a)

	res, err := r.Lookup("www.example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Addrs) != 2 || res.TTL != 300 || res.Source != SourceAuthority {
		t.Fatalf("Lookup = %+v, want 2 addrs, TTL 300, authority source", res)
	}
	// The legacy surface rides on top of Lookup.
	addrs, err := r.LookupA("www.example.com")
	if err != nil || len(addrs) != 2 {
		t.Fatalf("LookupA = %v, %v", addrs, err)
	}
	if got := r.LastAnswer("www.example.com"); len(got) != 2 {
		t.Fatalf("LastAnswer = %v, want the answer set", got)
	}
}

func TestResolverConsultsCacheBeforeAuthority(t *testing.T) {
	a := NewAuthority()
	a.AddA("cached.example", netip.MustParseAddr("192.0.2.7"))
	r := NewResolver(a)
	c := cache.New(cache.Options{})
	r.UseCache(c)

	if _, err := r.Lookup("cached.example", TypeA); err != nil {
		t.Fatal(err)
	}
	if r.Queries() != 1 {
		t.Fatalf("cold lookup queries = %d, want 1", r.Queries())
	}
	res, err := r.Lookup("cached.example", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceCache {
		t.Fatalf("warm lookup source = %q, want cache", res.Source)
	}
	if r.Queries() != 1 {
		t.Fatalf("warm lookup issued a query: queries = %d, want 1", r.Queries())
	}

	// TTL boundary: the authority's 300s budget expires exactly at
	// 300_000 ms — the lookup at that instant must go back to the wire.
	c.Clock().AdvanceMs(300_000)
	res, err = r.Lookup("cached.example", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceAuthority || r.Queries() != 2 {
		t.Fatalf("expired entry: source %q queries %d, want authority re-query", res.Source, r.Queries())
	}
}

func TestResolverNegativeCache(t *testing.T) {
	a := NewAuthority()
	r := NewResolver(a)
	c := cache.New(cache.Options{NegativeTTLSeconds: 60})
	r.UseCache(c)

	if _, err := r.Lookup("no-such.example", TypeA); err == nil {
		t.Fatal("expected NXDOMAIN")
	}
	res, err := r.Lookup("no-such.example", TypeA)
	if err == nil {
		t.Fatal("negative-cache hit must still fail the lookup")
	}
	if _, ok := err.(*NXDomainError); !ok {
		t.Fatalf("err = %v, want NXDomainError", err)
	}
	if res.Source != SourceNegativeCache {
		t.Fatalf("source = %q, want negative-cache", res.Source)
	}
	if r.Queries() != 1 {
		t.Fatalf("queries = %d, want 1 (second failure served from cache)", r.Queries())
	}
	// After the negative TTL the name is re-queried.
	c.Clock().AdvanceMs(60_000)
	if _, err := r.Lookup("no-such.example", TypeA); err == nil {
		t.Fatal("expected NXDOMAIN after negative expiry")
	}
	if r.Queries() != 2 {
		t.Fatalf("queries = %d, want 2 after negative entry expired", r.Queries())
	}
}

func TestResolverWithoutCacheUnchanged(t *testing.T) {
	a := NewAuthority()
	a.AddA("plain.example", netip.MustParseAddr("192.0.2.9"))
	r := NewResolver(a)
	for i := 0; i < 3; i++ {
		if _, err := r.LookupA("plain.example"); err != nil {
			t.Fatal(err)
		}
	}
	if r.Queries() != 3 {
		t.Fatalf("uncached resolver queries = %d, want 3 (one per lookup)", r.Queries())
	}
}

// The cache hands hits out without a copy; Lookup is the exported
// boundary that copies them. A caller may write its result, and hold it
// across an evicting store and a Reset, without touching the cache.
func TestLookupReturnsCallerOwnedAddrs(t *testing.T) {
	a := NewAuthority()
	a.AddA("one.example", netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"))
	a.AddA("two.example", netip.MustParseAddr("198.51.100.1"))
	a.AddA("three.example", netip.MustParseAddr("198.51.100.2"), netip.MustParseAddr("198.51.100.3"))
	r := NewResolver(a)
	c := cache.New(cache.Options{DNSCapacity: 1})
	r.UseCache(c)

	if _, err := r.Lookup("one.example", TypeA); err != nil {
		t.Fatal(err)
	}
	hit, err := r.Lookup("one.example", TypeA)
	if err != nil || hit.Source != SourceCache {
		t.Fatalf("second lookup = %+v, %v; want a cache hit", hit, err)
	}
	want := append([]netip.Addr(nil), hit.Addrs...)
	hit.Addrs[0] = netip.MustParseAddr("203.0.113.66")
	again, err := r.Lookup("one.example", TypeA)
	if err != nil || again.Source != SourceCache || again.Addrs[0] != want[0] {
		t.Fatalf("after the caller wrote its result, the next hit = %+v, %v; want %v from the cache", again, err, want)
	}

	held := again.Addrs
	if _, err := r.Lookup("two.example", TypeA); err != nil { // evicts one.example
		t.Fatal(err)
	}
	c.Reset()
	for _, name := range []string{"two.example", "three.example"} { // reuse both entries' storage
		if _, err := r.Lookup(name, TypeA); err != nil {
			t.Fatal(err)
		}
	}
	if held[0] != want[0] || held[1] != want[1] {
		t.Fatalf("held result changed to %v across an evicting store and a Reset; want %v", held, want)
	}
}
