package cache

import (
	"net/netip"
	"sync"
)

// DNSCache is a TTL-aware cache of A answers with an LRU capacity bound.
// Entries are keyed by canonical name; both positive answers and
// negative results (failed lookups) are stored. Eviction order is
// deterministic: the least recently used entry goes first, and "use"
// means a non-expired Get or a Put.
//
// Answers are returned without a copy (see Get), and entries that
// leave the cache — evicted, expired or dropped by Reset — go to a free
// list with their address storage, so a warmed cache stores new answers
// without allocating.
type DNSCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*dnsEntry // canonical name → entry

	// Intrusive LRU list: head is most recent, tail is next to evict.
	head, tail *dnsEntry
	free       *dnsEntry // recycled entries, linked through next

	hits, negHits, misses, expired, evictions int64
}

type dnsEntry struct {
	name      string // canonical
	addrs     []netip.Addr
	negative  bool
	expiresMs int64

	prev, next *dnsEntry
}

func newDNSCache(capacity int) *DNSCache {
	return &DNSCache{capacity: capacity, entries: make(map[string]*dnsEntry)}
}

// Get returns the cached answer for name at simulated time
// nowMs. negative reports a cached failure; ok is false on a miss. An
// entry whose deadline equals nowMs is already expired: TTLs are
// "seconds remaining", so at the instant the budget reaches zero the
// answer may no longer be served.
//
// addrs is the cache's own storage, not a copy: callers must not modify
// it. It keeps this answer across later lookups and Reset, until the
// next store into this cache (Put, PutNegative), which may overwrite
// it in place or reuse it for another name. A caller that keeps an
// answer past that point copies it.
func (d *DNSCache) Get(name string, nowMs int64) (addrs []netip.Addr, negative, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, found := d.entries[canonical(name)]
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

// Put stores a positive answer with the given TTL. Zero-TTL answers are
// uncacheable and dropped on the floor (they would expire at the very
// instant of the next lookup anyway).
func (d *DNSCache) Put(name string, addrs []netip.Addr, ttlSeconds uint32, nowMs int64) {
	if ttlSeconds == 0 || len(addrs) == 0 {
		return
	}
	d.put(canonical(name), addrs, false, nowMs+int64(ttlSeconds)*1000)
}

// PutNegative stores a failed lookup with the given negative TTL.
func (d *DNSCache) PutNegative(name string, ttlSeconds uint32, nowMs int64) {
	if ttlSeconds == 0 {
		return
	}
	d.put(canonical(name), nil, true, nowMs+int64(ttlSeconds)*1000)
}

// put stores a copy of addrs under the canonical name as the most
// recently used entry, replacing any entry the name had, then evicts
// down to capacity.
func (d *DNSCache) put(name string, addrs []netip.Addr, negative bool, expiresMs int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[name]
	if ok {
		d.unlink(e)
	} else {
		e = d.free
		if e != nil {
			d.free = e.next
		} else {
			e = &dnsEntry{}
		}
		e.name = name
		d.entries[name] = e
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
	delete(d.entries, e.name)
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
