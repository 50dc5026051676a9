package cache

import (
	"net/netip"
	"sync"
)

// DNSTransport tags a DNS cache entry with the resolver transport that
// produced it. Answers are not interchangeable across transports: a
// Do53 NXDOMAIN says nothing about what the DoH resolver would answer
// (different resolver, different view, different filtering), so when a
// sweep toggles resolver transport mid-run, entries minted under one
// transport must never be served to lookups under the other.
type DNSTransport uint8

// Resolver transports.
const (
	// TransportDo53 is classic UDP/TCP port-53 resolution — the zero
	// value, so every historical call site keys its entries here and
	// behaviour stays byte-identical.
	TransportDo53 DNSTransport = iota
	// TransportDoH is RFC 8484 DNS-over-HTTPS resolution.
	TransportDoH
)

func (t DNSTransport) String() string {
	switch t {
	case TransportDo53:
		return "do53"
	case TransportDoH:
		return "doh"
	default:
		return "unknown"
	}
}

// DNSCache is a TTL-aware answer cache with an LRU capacity bound.
// Entries are keyed by (transport, name, query type); both positive
// answers and negative results (failed lookups) are stored. Eviction
// order is deterministic: the least recently used entry goes first,
// and "use" means a non-expired Get or a Put. All transports share one
// capacity bound — a client has one DNS cache, however it resolves.
type DNSCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[dnsKey]*dnsEntry

	// Intrusive LRU list: head is most recent, tail is next to evict.
	head, tail *dnsEntry

	hits, negHits, misses, expired, evictions int64
}

// dnsKey names a (transport, type, name) question; name is canonical.
type dnsKey struct {
	transport DNSTransport
	typ       uint16
	name      string
}

type dnsEntry struct {
	key       dnsKey
	addrs     []netip.Addr
	negative  bool
	expiresMs int64

	prev, next *dnsEntry
}

func newDNSCache(capacity int) *DNSCache {
	return &DNSCache{capacity: capacity, entries: make(map[dnsKey]*dnsEntry)}
}

// Get returns the cached Do53-transport answer for (name, typ); see
// GetVia for the transport-keyed form.
func (d *DNSCache) Get(name string, typ uint16, nowMs int64) (addrs []netip.Addr, negative, ok bool) {
	return d.GetVia(TransportDo53, name, typ, nowMs)
}

// GetVia returns the cached answer for (transport, name, typ) at
// simulated time nowMs. negative reports a cached failure; ok is false
// on a miss. An entry whose deadline equals nowMs is already expired:
// TTLs are "seconds remaining", so at the instant the budget reaches
// zero the answer may no longer be served. Entries minted under a
// different transport never match.
func (d *DNSCache) GetVia(t DNSTransport, name string, typ uint16, nowMs int64) (addrs []netip.Addr, negative, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, found := d.entries[d.canon(t, name, typ)]
	if !found {
		d.misses++
		return nil, false, false
	}
	if nowMs >= e.expiresMs {
		d.remove(e)
		d.misses++
		d.expired++
		return nil, false, false
	}
	d.touch(e)
	if e.negative {
		d.negHits++
		return nil, true, true
	}
	d.hits++
	return append([]netip.Addr(nil), e.addrs...), false, true
}

// Put stores a positive Do53-transport answer; see PutVia.
func (d *DNSCache) Put(name string, typ uint16, addrs []netip.Addr, ttlSeconds uint32, nowMs int64) {
	d.PutVia(TransportDo53, name, typ, addrs, ttlSeconds, nowMs)
}

// PutVia stores a positive answer under its resolver transport with
// the given TTL. Zero-TTL answers are uncacheable and dropped on the
// floor (they would expire at the very instant of the next lookup
// anyway).
func (d *DNSCache) PutVia(t DNSTransport, name string, typ uint16, addrs []netip.Addr, ttlSeconds uint32, nowMs int64) {
	if ttlSeconds == 0 || len(addrs) == 0 {
		return
	}
	d.put(&dnsEntry{
		key:       d.canon(t, name, typ),
		addrs:     append([]netip.Addr(nil), addrs...),
		expiresMs: nowMs + int64(ttlSeconds)*1000,
	})
}

// PutNegative stores a failed Do53-transport lookup; see PutNegativeVia.
func (d *DNSCache) PutNegative(name string, typ uint16, ttlSeconds uint32, nowMs int64) {
	d.PutNegativeVia(TransportDo53, name, typ, ttlSeconds, nowMs)
}

// PutNegativeVia stores a failed lookup under its resolver transport
// with the given negative TTL.
func (d *DNSCache) PutNegativeVia(t DNSTransport, name string, typ uint16, ttlSeconds uint32, nowMs int64) {
	if ttlSeconds == 0 {
		return
	}
	d.put(&dnsEntry{
		key:       d.canon(t, name, typ),
		negative:  true,
		expiresMs: nowMs + int64(ttlSeconds)*1000,
	})
}

func (d *DNSCache) put(e *dnsEntry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.entries[e.key]; ok {
		d.remove(old)
	}
	d.entries[e.key] = e
	d.pushFront(e)
	for len(d.entries) > d.capacity {
		d.remove(d.tail)
		d.evictions++
	}
}

// Len reports the current entry count.
func (d *DNSCache) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

func (d *DNSCache) canon(t DNSTransport, name string, typ uint16) dnsKey {
	return dnsKey{t, typ, canonical(name)}
}

// canonical lower-cases a hostname and strips one trailing dot,
// mirroring the dns package's canonicalName without importing it.
func canonical(name string) string {
	if n := len(name); n > 0 && name[n-1] == '.' {
		name = name[:n-1]
	}
	lower := true
	for i := 0; i < len(name); i++ {
		if c := name[i]; 'A' <= c && c <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return name
	}
	b := []byte(name)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// --- intrusive LRU list (callers hold d.mu) ---

func (d *DNSCache) pushFront(e *dnsEntry) {
	e.prev, e.next = nil, d.head
	if d.head != nil {
		d.head.prev = e
	}
	d.head = e
	if d.tail == nil {
		d.tail = e
	}
}

func (d *DNSCache) unlink(e *dnsEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		d.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		d.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (d *DNSCache) remove(e *dnsEntry) {
	d.unlink(e)
	delete(d.entries, e.key)
}

func (d *DNSCache) touch(e *dnsEntry) {
	d.unlink(e)
	d.pushFront(e)
}

func (d *DNSCache) addStats(s *Stats) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s.DNSHits += d.hits
	s.DNSNegativeHits += d.negHits
	s.DNSMisses += d.misses
	s.DNSExpired += d.expired
	s.DNSEvictions += d.evictions
}
