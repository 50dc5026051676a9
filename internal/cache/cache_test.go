package cache

import (
	"fmt"
	"net/netip"
	"testing"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestDNSCacheTTLExpiryBoundary(t *testing.T) {
	c := New(Options{})
	c.PutDNS("a.example", []netip.Addr{ip("192.0.2.1")}, 5) // expires at t=5000ms

	if _, _, ok := c.LookupDNS("a.example"); !ok {
		t.Fatal("fresh entry should hit")
	}
	c.Clock().AdvanceMs(4999)
	if _, _, ok := c.LookupDNS("a.example"); !ok {
		t.Fatal("entry one ms before expiry should hit")
	}
	c.Clock().AdvanceMs(1) // now exactly at the expiry instant
	if _, _, ok := c.LookupDNS("a.example"); ok {
		t.Fatal("entry expiring exactly at the lookup instant must miss")
	}
	if c.dns.len() != 0 {
		t.Fatal("the expired entry must leave the cache")
	}
}

func TestDNSCacheZeroTTLNotCached(t *testing.T) {
	c := New(Options{})
	c.PutDNS("zero.example", []netip.Addr{ip("192.0.2.2")}, 0)
	if c.dns.len() != 0 {
		t.Fatal("zero-TTL answer must not be cached")
	}
	if _, _, ok := c.LookupDNS("zero.example"); ok {
		t.Fatal("zero-TTL answer must miss on the next lookup")
	}
}

func TestDNSCacheNegativeHit(t *testing.T) {
	c := New(Options{})
	c.PutNegativeDNS("missing.example")
	c.Clock().AdvanceMs(defaultNegativeTTLSeconds*1000 - 1)
	_, negative, ok := c.LookupDNS("missing.example")
	if !ok || !negative {
		t.Fatalf("negative entry: ok=%v negative=%v, want hit on previously failed name", ok, negative)
	}
	c.Clock().AdvanceMs(1)
	if _, _, ok := c.LookupDNS("missing.example"); ok {
		t.Fatal("negative entry must expire at its deadline")
	}
}

func TestDNSCacheLRUEvictionDeterministic(t *testing.T) {
	c := New(Options{})
	a := []netip.Addr{ip("192.0.2.3")}
	c.PutDNS("one.example", a, 300)
	c.PutDNS("two.example", a, 300)
	for i := 2; i < defaultDNSCapacity; i++ {
		c.PutDNS(fmt.Sprintf("fill%d.example", i), a, 300)
	}
	// Touch "one" so "two" becomes least recently used.
	if _, _, ok := c.LookupDNS("one.example"); !ok {
		t.Fatal("one.example should hit")
	}
	c.PutDNS("three.example", a, 300) // entry 4 097 evicts "two"
	if _, _, ok := c.LookupDNS("two.example"); ok {
		t.Fatal("LRU entry two.example should have been evicted")
	}
	if _, _, ok := c.LookupDNS("one.example"); !ok {
		t.Fatal("recently used one.example should survive")
	}
	if _, _, ok := c.LookupDNS("three.example"); !ok {
		t.Fatal("new three.example should be present")
	}
	if n := c.dns.len(); n != defaultDNSCapacity {
		t.Fatalf("%d entries after one eviction, want the capacity %d", n, defaultDNSCapacity)
	}
}

func TestDNSCacheCaseAndDotInsensitive(t *testing.T) {
	c := New(Options{})
	c.PutDNS("WWW.Example.COM.", []netip.Addr{ip("192.0.2.9")}, 60)
	if _, _, ok := c.LookupDNS("www.example.com"); !ok {
		t.Fatal("lookup must canonicalize names like the resolver does")
	}
}

func TestTicketResumptionAcrossHostnames(t *testing.T) {
	c := New(Options{TicketLifetimeSeconds: 100})
	c.StoreTicketProto([]string{"www.zone.example", "cdnjs.cloudflare.com", "*.shared.example"}, ProtoWireH2)

	if !c.RedeemTicketProto("cdnjs.cloudflare.com", ProtoWireH2) {
		t.Fatal("ticket must resume any hostname its certificate covers")
	}
	if !c.RedeemTicketProto("a.shared.example", ProtoWireH2) {
		t.Fatal("wildcard coverage must allow resumption")
	}
	if c.RedeemTicketProto("b.c.shared.example", ProtoWireH2) {
		t.Fatal("wildcard matches exactly one label")
	}
	if c.RedeemTicketProto("other.example", ProtoWireH2) {
		t.Fatal("uncovered host must not resume")
	}
}

func TestTicketLifetimeAndReuse(t *testing.T) {
	c := New(Options{TicketLifetimeSeconds: 10})
	c.StoreTicketProto([]string{"h.example"}, ProtoWireH2)
	for i := 0; i < 3; i++ {
		if !c.RedeemTicketProto("h.example", ProtoWireH2) {
			t.Fatalf("redemption %d: a ticket serves until it expires", i)
		}
	}
	c.Clock().AdvanceMs(10_000) // exactly the lifetime: dead
	if c.RedeemTicketProto("h.example", ProtoWireH2) {
		t.Fatal("ticket expiring exactly at redemption instant must miss")
	}

	// TicketsDisabled turns the store off entirely.
	off := New(Options{TicketLifetimeSeconds: TicketsDisabled})
	if off.tickets.s.enabled() {
		t.Fatal("zero ticket lifetime must disable resumption")
	}
	off.StoreTicketProto([]string{"h.example"}, ProtoWireH2)
	if off.RedeemTicketProto("h.example", ProtoWireH2) {
		t.Fatal("disabled store must never resume")
	}
}

func TestCertMemo(t *testing.T) {
	c := New(Options{})
	sans := []string{"b.example", "a.example"}
	if c.chains.validate("CA", sans) {
		t.Fatal("first validation of a chain is a miss")
	}
	// SAN order must not matter: same chain, reordered list.
	if !c.chains.validate("CA", []string{"a.example", "b.example"}) {
		t.Fatal("second validation of the same chain must hit the memo")
	}
	if c.chains.validate("OtherCA", sans) {
		t.Fatal("a different issuer is a different chain")
	}
	if n := c.chains.len(); n != 2 {
		t.Fatalf("memo holds %d chains, want 2", n)
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if c.enabled() {
		t.Fatal("nil cache must report disabled")
	}
	c.PutDNS("x", []netip.Addr{ip("192.0.2.1")}, 300)
	if _, _, ok := c.LookupDNS("x"); ok {
		t.Fatal("nil cache must miss")
	}
	c.PutNegativeDNS("x")
	c.StoreTicketProto([]string{"x"}, ProtoWireH2)
	if c.RedeemTicketProto("x", ProtoWireH2) {
		t.Fatal("nil cache must not resume")
	}
	if h := c.Handshake("x", "CA", []string{"x"}, ProtoWireH3); h != (Handshake{}) {
		t.Fatalf("nil cache handshake = %+v, want the cold zero value", h)
	}
	c.Clock().AdvanceMs(1000) // must not panic
}

// enabled reports whether the cache layer is active.
func (c *Cache) enabled() bool { return c != nil }

// len reports the current entry count.
func (d *dnsCache) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}
