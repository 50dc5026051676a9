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
//
// Answers are returned without a copy (see GetVia), and entries that
// leave the cache — evicted, expired or dropped by Reset — go to a free
// list with their address storage, so a warmed cache stores new answers
// without allocating.
type DNSCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[dnsKey]*dnsEntry

	// Intrusive LRU list: head is most recent, tail is next to evict.
	head, tail *dnsEntry
	free       *dnsEntry // recycled entries, linked through next

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
//
// addrs is the cache's own storage, not a copy: callers must not modify
// it. It keeps this answer across later lookups and Reset, until the
// next store into this cache (Put*, PutNegative*), which may overwrite
// it in place or reuse it for another name. A caller that keeps an
// answer past that point copies it, as dns.Resolver.Lookup does.
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
	return e.addrs, false, true
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
	d.put(d.canon(t, name, typ), addrs, false, nowMs+int64(ttlSeconds)*1000)
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
	d.put(d.canon(t, name, typ), nil, true, nowMs+int64(ttlSeconds)*1000)
}

// put stores a copy of addrs under key as the most recently used entry,
// replacing any entry the key had, then evicts down to capacity.
func (d *DNSCache) put(key dnsKey, addrs []netip.Addr, negative bool, expiresMs int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[key]
	if ok {
		d.unlink(e)
	} else {
		e = d.free
		if e != nil {
			d.free = e.next
		} else {
			e = &dnsEntry{}
		}
		e.key = key
		d.entries[key] = e
	}
	e.addrs = append(e.addrs[:0], addrs...)
	e.negative = negative
	e.expiresMs = expiresMs
	d.pushFront(e)
	for len(d.entries) > d.capacity {
		d.remove(d.tail)
		d.evictions++
	}
}

// reset empties the cache and zeroes its accounting, keeping the map
// and every entry for reuse.
func (d *DNSCache) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for e := d.head; e != nil; {
		next := e.next
		d.release(e)
		e = next
	}
	d.head, d.tail = nil, nil
	clear(d.entries)
	d.hits, d.negHits, d.misses, d.expired, d.evictions = 0, 0, 0, 0, 0
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
	d.release(e)
}

// release puts an unlinked entry on the free list. Its addresses stay
// as they are until put reuses the storage.
func (d *DNSCache) release(e *dnsEntry) {
	e.prev, e.next = nil, d.free
	d.free = e
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
