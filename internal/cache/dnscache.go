package cache

import (
	"net/netip"
	"sync"
)

// dnsCache is a TTL-aware cache of A answers with an LRU capacity bound
// of defaultDNSCapacity entries.
// Entries are keyed by canonical name; both positive answers and
// negative results (failed lookups) are stored. Eviction order is
// deterministic: the least recently used entry goes first, and "use"
// means a non-expired Get or a Put.
//
// Answers are returned without a copy (see Get), and entries that
// leave the cache — evicted, expired or dropped by Reset — go to a free
// list with their address storage, so a warmed cache stores new answers
// without allocating. A cold cache cuts new entries from blocks of
// dnsEntryBlock and answers from shared blocks of dnsAddrBlock
// addresses, so filling it allocates once a block, not twice a name.
// Each answer is cut at full capacity: one that outgrows its slot moves
// to a new one and never writes into a neighbour's.
type dnsCache struct {
	mu      sync.Mutex
	entries map[string]*dnsEntry // canonical name → entry

	// Intrusive LRU list: head is most recent, tail is next to evict.
	head, tail *dnsEntry
	free       *dnsEntry // recycled entries, linked through next

	entryBlk []dnsEntry   // unused rest of the current entry block
	addrBlk  []netip.Addr // unused rest of the current address block
}

// Block sizes of a cold cache's storage.
const (
	dnsEntryBlock = 64
	dnsAddrBlock  = 256
)

type dnsEntry struct {
	name      string // canonical
	addrs     []netip.Addr
	negative  bool
	expiresMs int64

	prev, next *dnsEntry
}

func newDNSCache() *dnsCache {
	return &dnsCache{entries: make(map[string]*dnsEntry)}
}

// get returns the cached answer for name at simulated time
// nowMs. negative reports a cached failure; ok is false on a miss. An
// entry whose deadline equals nowMs is already expired: TTLs are
// "seconds remaining", so at the instant the budget reaches zero the
// answer may no longer be served.
//
// addrs is the cache's own storage, not a copy: callers must not modify
// it. It keeps this answer across later lookups and Reset, until the
// next store into this cache (put), which may overwrite it in place or
// reuse it for another name. A caller that keeps an answer past that
// point copies it.
func (d *dnsCache) get(name string, nowMs int64) (addrs []netip.Addr, negative, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, found := d.entries[canonical(name)]
	if !found {
		return nil, false, false
	}
	if nowMs >= e.expiresMs {
		d.remove(e)
		return nil, false, false
	}
	d.touch(e)
	if e.negative {
		return nil, true, true
	}
	return e.addrs, false, true
}

// put stores a copy of addrs under the canonical name as the most
// recently used entry, replacing any entry the name had, then evicts
// down to capacity.
func (d *dnsCache) put(name string, addrs []netip.Addr, negative bool, expiresMs int64) {
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
			if len(d.entryBlk) == 0 {
				d.entryBlk = make([]dnsEntry, dnsEntryBlock)
			}
			e, d.entryBlk = &d.entryBlk[0], d.entryBlk[1:]
		}
		e.name = name
		d.entries[name] = e
	}
	if n := len(addrs); n > cap(e.addrs) {
		e.addrs = d.cutAddrs(n)
	}
	e.addrs = append(e.addrs[:0], addrs...)
	e.negative = negative
	e.expiresMs = expiresMs
	d.pushFront(e)
	for len(d.entries) > defaultDNSCapacity {
		d.remove(d.tail)
	}
}

// cutAddrs returns empty storage for n addresses, n > 0, capped at n
// so that appending past it can never reach the next answer's.
func (d *dnsCache) cutAddrs(n int) []netip.Addr {
	if n > dnsAddrBlock {
		return make([]netip.Addr, 0, n)
	}
	if len(d.addrBlk) < n {
		d.addrBlk = make([]netip.Addr, dnsAddrBlock)
	}
	a := d.addrBlk[:0:n]
	d.addrBlk = d.addrBlk[n:]
	return a
}

// reset empties the cache, keeping the map and every entry for reuse.
func (d *dnsCache) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for e := d.head; e != nil; {
		next := e.next
		d.release(e)
		e = next
	}
	d.head, d.tail = nil, nil
	clear(d.entries)
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

func (d *dnsCache) pushFront(e *dnsEntry) {
	e.prev, e.next = nil, d.head
	if d.head != nil {
		d.head.prev = e
	}
	d.head = e
	if d.tail == nil {
		d.tail = e
	}
}

func (d *dnsCache) unlink(e *dnsEntry) {
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

func (d *dnsCache) remove(e *dnsEntry) {
	d.unlink(e)
	delete(d.entries, e.name)
	d.release(e)
}

// release puts an unlinked entry on the free list. Its addresses stay
// as they are until put reuses the storage.
func (d *dnsCache) release(e *dnsEntry) {
	e.prev, e.next = nil, d.free
	d.free = e
}

func (d *dnsCache) touch(e *dnsEntry) {
	d.unlink(e)
	d.pushFront(e)
}
