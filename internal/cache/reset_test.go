package cache

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

var (
	resetAnswers = [][]netip.Addr{
		{ip("192.0.2.1")},
		{ip("192.0.2.2"), ip("192.0.2.3")},
		{ip("198.51.100.7"), ip("192.0.2.1"), ip("2001:db8::1")},
	}
	resetTTLs     = []uint32{0, 1, 2, 5}
	resetAdvances = []int64{1, 999, 1000, 1001, 2000}
	resetIssuers  = []string{"", "CA", "Other CA"}
)

// runCacheSchedule drives c through the schedule in data and returns
// everything a caller could observe: each step's results, and the clock
// and every store's Len after it. Each byte pair is one
// step: the first byte picks one of ten operations (DNS put, negative
// put, two kinds of lookup, ticket store and redeem, token store and
// redeem, chain validation or a whole handshake, a clock advance) and
// the answer, TTL and issuer; the second byte picks the
// name, SAN list and wire protocol. TTLs and advances are whole seconds
// and their neighbours, so entries expire exactly at, just before and
// just after a lookup.
func runCacheSchedule(c *Cache, data []byte) []string {
	var out []string
	for i := 0; i+1 < len(data); i += 2 {
		op, sel, arg := data[i]%10, int(data[i]/10), int(data[i+1])
		issuer := resetIssuers[sel/2%len(resetIssuers)]
		host := scheduleHosts[arg%len(scheduleHosts)]
		sans := scheduleCerts[arg%len(scheduleCerts)]
		proto := protoWireH1 + arg/len(scheduleHosts)%3
		var step string
		switch op {
		case 0:
			c.PutDNS(host, resetAnswers[sel/2%len(resetAnswers)], resetTTLs[sel/6%len(resetTTLs)])
		case 1:
			c.PutNegativeDNS(host)
		case 2, 3:
			addrs, negative, ok := c.LookupDNS(host)
			step = fmt.Sprint(addrs, negative, ok)
		case 4:
			c.StoreTicketProto(sans, proto)
		case 5:
			step = fmt.Sprint(c.RedeemTicketProto(host, proto))
		case 6:
			c.tokens.s.store(sans, proto, c.clock.nowMs())
		case 7:
			step = fmt.Sprint(c.tokens.s.redeem(host, proto, c.clock.nowMs()))
		case 8:
			if sel&1 == 0 {
				step = fmt.Sprint(c.chains.validate(issuer, sans))
			} else {
				step = fmt.Sprintf("%+v", c.Handshake(host, issuer, sans, proto))
			}
		default:
			c.Clock().AdvanceMs(resetAdvances[arg%len(resetAdvances)])
		}
		out = append(out, fmt.Sprintf("%d:%d %s | at %d ms: dns %d tickets %d tokens %d chains %d",
			op, arg, step, c.clock.nowMs(), c.dns.len(), c.tickets.s.len(), c.tokens.s.len(), c.chains.len()))
	}
	return out
}

// Reset ≡ New: a cache that ran any schedule and was Reset answers a
// second schedule exactly as a fresh New(opts) does. The options cover
// a disabled ticket store and lifetimes that keep the ticket store
// inside scanWindow or push it past it; the long schedules push the
// token store past it too, and overfill the DNS LRU before the Reset.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 400; n++ {
		opts := Options{
			TicketLifetimeSeconds: rng.Intn(4) - 1, // TicketsDisabled, the default, 1 s, 2 s
		}
		steps := 100
		if n%10 == 0 {
			steps = 1500 // long enough to index grants and recycle nodes
		}
		first, second := randomSchedule(rng, steps), randomSchedule(rng, steps)
		reused := New(opts)
		runCacheSchedule(reused, first)
		if n%10 == 0 {
			// Overfill the DNS LRU, so Reset also recycles evicted entries.
			for i := 0; i <= defaultDNSCapacity; i++ {
				reused.PutDNS(fmt.Sprintf("fill%d.example", i), resetAnswers[i%len(resetAnswers)], 300)
			}
		}
		reused.Reset()
		got := runCacheSchedule(reused, second)
		want := runCacheSchedule(New(opts), second)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("schedule %d, opts %+v, step %d after Reset:\n got  %s\n want %s", n, opts, i, got[i], want[i])
			}
		}
	}
}

// The memo hashes each SAN list sorted in its own scratch; the identity
// is the one the allocating ChainHash of earlier versions computed.
func TestChainHashValuesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		issuer string
		sans   []string
		want   uint64
	}{
		{"CA", []string{"b.example", "a.example"}, 0x82febfabe86f94cc},
		{"", []string{"*.example", "www.example", "example"}, 0x3a3beb2c5fd81b6a},
		{"Let's Encrypt", nil, 0x3323f605aa629c5d},
	} {
		sorted := slices.Clone(tc.sans)
		slices.Sort(sorted)
		if got := chainHash(tc.issuer, sorted); got != tc.want {
			t.Errorf("chainHash(%q, %q) = %#x, want %#x", tc.issuer, sorted, got, tc.want)
		}
	}
	m := newCertMemo()
	sans := []string{"b.example", "a.example"}
	m.validate("CA", sans)
	if !m.seen[0x82febfabe86f94cc] || !slices.Equal(sans, []string{"b.example", "a.example"}) {
		t.Fatal("validate must memoize the sorted list's hash and leave the caller's list as it was")
	}
}

// A DNS hit is the cache's storage, read-only, and keeps its answer
// across later lookups and Reset; only a store may overwrite it, and
// the cache's own answers stay right whatever the holder saw.
func TestHeldDNSHit(t *testing.T) {
	c := New(Options{})
	want := []netip.Addr{ip("192.0.2.1"), ip("192.0.2.2")}
	c.PutDNS("a.example", want, 300)
	held, _, ok := c.LookupDNS("a.example")
	if !ok || !slices.Equal(held, want) {
		t.Fatalf("hit = %v, %v; want %v", held, ok, want)
	}
	if again, _, _ := c.LookupDNS("a.example"); &again[0] != &held[0] {
		t.Fatal("hits must return the stored answer without copying")
	}
	c.LookupDNS("b.example") // a miss
	c.Reset()
	if !slices.Equal(held, want) {
		t.Fatalf("held hit changed across a lookup and Reset: %v", held)
	}
	if _, _, ok := c.LookupDNS("a.example"); ok {
		t.Fatal("Reset must drop every entry")
	}

	// An evicting store may reuse the held storage for the new answer;
	// the cache answers from what was stored, not from the holder.
	c.PutDNS("a.example", want, 300)
	held, _, _ = c.LookupDNS("a.example")
	other := []netip.Addr{ip("198.51.100.9")}
	for i := 1; i < defaultDNSCapacity; i++ {
		c.PutDNS(fmt.Sprintf("fill%d.example", i), other, 300)
	}
	c.PutDNS("b.example", other, 300) // entry 4 097 evicts a.example
	if len(held) != len(want) {
		t.Fatalf("held hit changed length to %d", len(held))
	}
	if _, _, ok := c.LookupDNS("a.example"); ok {
		t.Fatal("a.example should have been evicted")
	}
	if got, _, ok := c.LookupDNS("b.example"); !ok || !slices.Equal(got, other) {
		t.Fatalf("b.example = %v, %v; want %v", got, ok, other)
	}
	if n := c.dns.len(); n != defaultDNSCapacity {
		t.Fatalf("%d entries after one eviction, want the capacity %d", n, defaultDNSCapacity)
	}
}

// A cold cache cuts its entries and answers from blocks: filling a new
// one with defaultDNSCapacity one-address names allocates ≤ 160
// objects (measured 134: New, the map's growth and the blocks; 8 248 while
// every name took an entry and an answer of its own), and filling it
// again after Reset allocates nothing. Every answer is cut at its own
// length, so none can grow into the next one's storage.
func TestDNSColdFillAllocs(t *testing.T) {
	names := make([]string, defaultDNSCapacity)
	answers := make([][]netip.Addr, defaultDNSCapacity)
	for i := range names {
		names[i] = fmt.Sprintf("n%d.example", i)
		answers[i] = []netip.Addr{netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})}
	}
	var c *Cache
	fill := func() {
		for i, name := range names {
			c.PutDNS(name, answers[i], 300)
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { c = New(Options{}); fill() }); allocs > 160 {
		t.Errorf("a cold fill of %d names allocates %.0f objects, want ≤ 160", len(names), allocs)
	} else {
		t.Logf("a cold fill of %d names allocates %.0f objects", len(names), allocs)
	}
	for i, name := range names {
		got, _, ok := c.LookupDNS(name)
		if !ok || !slices.Equal(got, answers[i]) || cap(got) != len(got) {
			t.Fatalf("%s = %v (cap %d), %v; want %v at full capacity", name, got, cap(got), ok, answers[i])
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { c.Reset(); fill() }); allocs != 0 {
		t.Errorf("a fill after Reset allocates %.0f objects, want 0", allocs)
	}
}

// An answer held from LookupDNS keeps its bytes while later names are
// cut from the same address block, and while an answer cut before it
// from that block outgrows its slot: only a store that reuses the held
// entry's own storage may change it.
func TestHeldAnswerSurvivesNeighbourPut(t *testing.T) {
	c := New(Options{})
	one := []netip.Addr{ip("192.0.2.1")}
	want := []netip.Addr{ip("198.51.100.1"), ip("198.51.100.2")}
	c.PutDNS("grow.example", one, 300) // the held answer's neighbour below
	c.PutDNS("held.example", want, 300)
	held, _, ok := c.LookupDNS("held.example")
	if !ok || !slices.Equal(held, want) {
		t.Fatalf("held.example = %v, %v; want %v", held, ok, want)
	}
	for i := range 8 {
		c.PutDNS(fmt.Sprintf("after%d.example", i), []netip.Addr{ip("203.0.113.9"), ip("203.0.113.10")}, 300)
	}
	if !slices.Equal(held, want) {
		t.Fatalf("held answer changed to %v when later names were stored", held)
	}
	grown := []netip.Addr{ip("192.0.2.7"), ip("192.0.2.8"), ip("192.0.2.9"), ip("192.0.2.10")}
	c.PutDNS("grow.example", grown, 300)
	if !slices.Equal(held, want) {
		t.Fatalf("held answer changed to %v when its neighbour outgrew its slot", held)
	}
	if got, _, _ := c.LookupDNS("held.example"); !slices.Equal(got, want) {
		t.Fatalf("held.example = %v after its neighbour grew, want %v", got, want)
	}
	if got, _, _ := c.LookupDNS("grow.example"); !slices.Equal(got, grown) {
		t.Fatalf("grow.example = %v, want %v", got, grown)
	}
}
