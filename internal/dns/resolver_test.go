package dns

import (
	"net/netip"
	"testing"
)

func TestLookupUnifiedSurface(t *testing.T) {
	a := NewAuthority()
	a.AddA("www.example.com", netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"))
	r := NewResolver(a)

	res, err := r.lookup("www.example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Addrs) != 2 || res.TTL != 300 {
		t.Fatalf("Lookup = %+v, want 2 addrs, TTL 300", res)
	}
	// The legacy surface rides on top of Lookup.
	addrs, err := r.LookupA("www.example.com")
	if err != nil || len(addrs) != 2 {
		t.Fatalf("LookupA = %v, %v", addrs, err)
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
	if r.queryCount() != 3 {
		t.Fatalf("uncached resolver queries = %d, want 3 (one per lookup)", r.queryCount())
	}
}

// lookup's result belongs to the caller: writing it changes no later
// answer.
func TestLookupReturnsCallerOwnedAddrs(t *testing.T) {
	a := NewAuthority()
	a.AddA("one.example", netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"))
	r := NewResolver(a)
	first, err := r.lookup("one.example", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]netip.Addr(nil), first.Addrs...)
	first.Addrs[0] = netip.MustParseAddr("203.0.113.66")
	again, err := r.lookup("one.example", TypeA)
	if err != nil || len(again.Addrs) != 2 || again.Addrs[0] != want[0] || again.Addrs[1] != want[1] {
		t.Fatalf("after the caller wrote its result, the next lookup = %v, %v; want %v", again.Addrs, err, want)
	}
}
