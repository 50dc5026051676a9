package cache

import (
	"strings"
	"sync"
)

// coverStore is the store behind TicketStore and TokenStore. A grant (a
// session ticket or an address-validation token) covers the hostnames
// of the SAN list it was issued for under the wire protocol that minted
// it, and lives for the store's constant lifetime. Redemption serves
// the oldest live covering grant, so the order of issuance fully
// determines which grant serves a host and two runs with the same visit
// schedule redeem identically.
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
	consume    bool  // a hit removes the grant (single-use tickets)

	// grants in issue order; grants[0] has id base. A consumed grant
	// stays queued, marked dead, until it reaches the head.
	grants []grant
	base   int
	live   int

	// Grants with an id below indexed are in index: per covered name,
	// their ids ascending, dead ones dropped lazily from the front.
	indexed int
	index   map[coverKey][]int

	issued, hits, misses, expiredN int64
}

const scanWindow = 64

// grant.sans is the caller's slice, not a copy: callers must not modify
// a SAN list they have handed over (none does: SAN lists belong to a
// corpus page or a deployment's certificate).
type grant struct {
	sans      []string
	expiresMs int64
	proto     int // wire protocol the grant was minted under
	dead      bool
}

// coverKey names an index entry: an exact SAN, or (wild) the
// ".example.com" of a "*.example.com" SAN.
type coverKey struct {
	proto int
	wild  bool
	name  string
}

// covers reports whether the SAN list covers host, honoring
// single-label wildcards (the same matching rule the browser pool
// applies before coalescing onto a connection): a "*.example.com" SAN
// covers host when suffix, host minus its first label, is
// ".example.com".
func (g *grant) covers(host, suffix string) bool {
	for _, san := range g.sans {
		if san == host || len(san) > 2 && san[0] == '*' && san[1:] == suffix {
			return true
		}
	}
	return false
}

// eachKey calls fn with every index key of the grant.
func (g *grant) eachKey(fn func(coverKey)) {
	for _, san := range g.sans {
		fn(coverKey{g.proto, false, san})
		if len(san) > 2 && san[0] == '*' && san[1] == '.' {
			fn(coverKey{g.proto, true, san[1:]})
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
	s.issued++
	s.live++
	s.grants = append(s.grants, grant{sans: sans, expiresMs: nowMs + s.lifetimeMs, proto: proto})
	if s.base+len(s.grants)-s.indexed <= scanWindow {
		return
	}
	// The oldest unindexed grant leaves the window.
	if g := &s.grants[s.indexed-s.base]; !g.dead {
		if s.index == nil {
			s.index = map[coverKey][]int{}
		}
		g.eachKey(func(k coverKey) { s.index[k] = append(s.index[k], s.indexed) })
	}
	s.indexed++
}

// redeem reports whether a live grant minted under proto covers host,
// first dropping every grant that has expired (one expiring exactly at
// nowMs is dead).
func (s *coverStore) redeem(host string, proto int, nowMs int64) bool {
	if !s.enabled() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.grants) > 0 && (s.grants[0].dead || nowMs >= s.grants[0].expiresMs) {
		s.pop()
	}
	// A wildcard covers exactly one extra label: host minus its first
	// label is the only suffix that can match.
	suffix := ""
	if dot := strings.IndexByte(host, '.'); dot > 0 {
		suffix = host[dot:]
	}
	id, ok := s.oldestIndexed(coverKey{proto, false, host})
	if w, wok := s.oldestIndexed(coverKey{proto, true, suffix}); wok && (!ok || w < id) {
		id, ok = w, true
	}
	for i := s.indexed - s.base; !ok && i < len(s.grants); i++ {
		g := &s.grants[i]
		id, ok = s.base+i, !g.dead && g.proto == proto && g.covers(host, suffix)
	}
	if !ok {
		s.misses++
		return false
	}
	s.hits++
	if s.consume {
		s.grants[id-s.base].dead = true
		s.live--
	}
	return true
}

// pop removes the head grant, counting it expired unless it was
// consumed first.
func (s *coverStore) pop() {
	g := s.grants[0]
	s.grants[0] = grant{}
	s.grants = s.grants[1:]
	s.base++
	if !g.dead {
		s.expiredN++
		s.live--
	}
	if s.indexed < s.base {
		s.indexed = s.base
	} else {
		g.eachKey(func(k coverKey) { s.oldestIndexed(k) })
	}
}

// oldestIndexed returns the id of the oldest live grant indexed under
// k, trimming dead ids off the front of k's list as it goes.
func (s *coverStore) oldestIndexed(k coverKey) (int, bool) {
	ids := s.index[k]
	n := 0
	for n < len(ids) && (ids[n] < s.base || s.grants[ids[n]-s.base].dead) {
		n++
	}
	if n == len(ids) {
		if n > 0 {
			delete(s.index, k)
		}
		return 0, false
	}
	if n > 0 {
		s.index[k] = ids[n:]
	}
	return ids[n], true
}

// len reports the live grant count (expired grants linger until the
// next redeem).
func (s *coverStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// addCounts adds the store's accounting into the given Stats fields.
func (s *coverStore) addCounts(issued, hits, misses, expired *int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	*issued += s.issued
	*hits += s.hits
	*misses += s.misses
	*expired += s.expiredN
}
