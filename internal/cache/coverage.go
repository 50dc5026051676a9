package cache

import (
	"sync"

	"respectorigin/internal/certs"
)

// coverStore is the store behind ticketStore and tokenStore. A grant (a
// session ticket or an address-validation token) covers the hostnames
// of the SAN list it was issued for under the wire protocol that minted
// it, and lives for the store's constant lifetime. Redemption asks
// whether a live grant covers the host; it consumes nothing, so the
// order of issuance and the clock fully determine the answer and two
// runs with the same visit schedule redeem identically.
//
// A redeem costs two map probes plus a look at the scanWindow newest
// grants, whatever the store holds: grants older than the window are
// indexed by covered name. The window is there because a store that
// stays small (one page's revisits) is cheaper to scan than to index —
// comparing names rarely reads past their lengths, hashing them always
// does. Expiry pops a FIFO: issue order is expiry order, because the
// lifetime is constant and callers pass a simulated clock that never
// runs backwards.
type coverStore struct {
	mu         sync.Mutex
	lifetimeMs int64 // 0 disables the store

	// grants[head:] is the queue in issue order; grants[head] has id
	// base.
	grants []grant
	head   int
	base   int

	// Grants with an id below indexed are in index: per covered name, a
	// list of their ids ascending, expired ones dropped from the front. The lists are linked through nodes, and dropped nodes are
	// recycled through free, so indexing allocates only while the store
	// grows past its largest size so far.
	indexed int
	index   map[coverKey]idList
	nodes   []idNode
	free    int32
}

const scanWindow = 64

// noNode ends an id list (and the free list).
const noNode int32 = -1

// idList is one index key's ids: the first and last node of its chain.
type idList struct{ head, tail int32 }

type idNode struct {
	id   int
	next int32
}

func newCoverStore(lifetimeMs int64) coverStore {
	return coverStore{lifetimeMs: lifetimeMs, free: noNode}
}

// grant.sans is the caller's slice, not a copy: callers must not modify
// a SAN list they have handed over (none does: SAN lists belong to a
// corpus page or a deployment's certificate).
type grant struct {
	sans      []string
	expiresMs int64
	proto     int // wire protocol the grant was minted under
}

// coverKey names an index entry: an exact SAN, or (wild) the
// ".example.com" of a "*.example.com" SAN.
type coverKey struct {
	proto int
	wild  bool
	name  string
}

// eachKey calls fn with every index key of the grant.
func (g *grant) eachKey(fn func(coverKey)) {
	for _, san := range g.sans {
		fn(coverKey{g.proto, false, san})
		if suffix := certs.WildcardSuffix(san); suffix != "" {
			fn(coverKey{g.proto, true, suffix})
		}
	}
}

func (s *coverStore) enabled() bool { return s.lifetimeMs > 0 }

func (s *coverStore) store(sans []string, proto int, nowMs int64) {
	if !s.enabled() || len(sans) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.grants) == cap(s.grants) && s.head > 0 && 2*s.head >= len(s.grants) {
		// Slide the queue back to the front instead of growing it.
		n := copy(s.grants, s.grants[s.head:])
		clear(s.grants[n:])
		s.grants, s.head = s.grants[:n], 0
	}
	s.grants = append(s.grants, grant{sans: sans, expiresMs: nowMs + s.lifetimeMs, proto: proto})
	if s.base+len(s.grants)-s.head-s.indexed <= scanWindow {
		return
	}
	// The oldest unindexed grant leaves the window.
	if s.index == nil {
		s.index = map[coverKey]idList{}
	}
	s.at(s.indexed).eachKey(func(k coverKey) { s.push(k, s.indexed) })
	s.indexed++
}

// at returns the queued grant with the given id.
func (s *coverStore) at(id int) *grant { return &s.grants[s.head+id-s.base] }

// redeem reports whether a live grant minted under proto covers host,
// first dropping every grant that has expired (one expiring exactly at
// nowMs is dead).
func (s *coverStore) redeem(host string, proto int, nowMs int64) bool {
	if !s.enabled() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.head < len(s.grants) && nowMs >= s.grants[s.head].expiresMs {
		s.pop()
	}
	if s.indexedLive(coverKey{proto, false, host}) || s.indexedLive(coverKey{proto, true, certs.HostSuffix(host)}) {
		return true
	}
	for _, g := range s.grants[s.head+s.indexed-s.base:] {
		if g.proto == proto && certs.Covers(g.sans, host) {
			return true
		}
	}
	return false
}

// pop removes the head grant, which has expired.
func (s *coverStore) pop() {
	g := s.grants[s.head]
	s.grants[s.head] = grant{}
	if s.head++; s.head == len(s.grants) {
		s.grants, s.head = s.grants[:0], 0
	}
	s.base++
	if s.indexed < s.base {
		s.indexed = s.base
	} else {
		g.eachKey(func(k coverKey) { s.indexedLive(k) })
	}
}

// push appends id to k's index list.
func (s *coverStore) push(k coverKey, id int) {
	n := s.free
	if n != noNode {
		s.free = s.nodes[n].next
		s.nodes[n] = idNode{id, noNode}
	} else {
		n = int32(len(s.nodes))
		s.nodes = append(s.nodes, idNode{id, noNode})
	}
	l, ok := s.index[k]
	if ok {
		s.nodes[l.tail].next = n
		l.tail = n
	} else {
		l = idList{n, n}
	}
	s.index[k] = l
}

// indexedLive reports whether a live grant is indexed under k,
// recycling the nodes of expired ids off the front of k's list as it
// goes.
func (s *coverStore) indexedLive(k coverKey) bool {
	l, ok := s.index[k]
	if !ok {
		return false
	}
	n := l.head
	for n != noNode && s.nodes[n].id < s.base {
		next := s.nodes[n].next
		s.nodes[n].next = s.free
		s.free = n
		n = next
	}
	if n == noNode {
		delete(s.index, k)
		return false
	}
	if n != l.head {
		l.head = n
		s.index[k] = l
	}
	return true
}

// reset empties the store, keeping the queue, the index map and the
// nodes for reuse.
func (s *coverStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.grants)
	s.grants = s.grants[:0]
	s.head, s.base, s.indexed = 0, 0, 0
	clear(s.index)
	s.nodes, s.free = s.nodes[:0], noNode
}
