package cache

import (
	"net/netip"
	"slices"
	"sync"
)

// certMemo remembers which certificate chains this client has already
// validated, keyed by chain hash. A fresh TLS handshake presenting a
// chain the memo has seen skips the cryptographic validation — the
// "cert validations saved" component of the paper's Figure 3 metrics.
// Validation results have no TTL here: within a warm/cold visit
// sequence the chains' validity windows dwarf the simulated horizon.
type certMemo struct {
	mu     sync.Mutex
	seen   map[uint64]bool
	sorted []string // scratch: the SAN list being hashed, sorted
}

func newCertMemo() *certMemo {
	return &certMemo{seen: make(map[uint64]bool)}
}

// validate records one validation of the chain (issuer, sans) and
// reports whether it was a memo hit (validation skipped) or a miss (a
// full validation performed and memoized). sans is only read.
func (m *certMemo) validate(issuer string, sans []string) (hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sorted = append(m.sorted[:0], sans...)
	slices.Sort(m.sorted)
	h := chainHash(issuer, m.sorted)
	if m.seen[h] {
		return true
	}
	m.seen[h] = true
	return false
}

func (m *certMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.seen)
}

// chainHash derives a deterministic identity for a certificate chain
// from its issuer and its SAN set, given sorted (the simulator's
// certificates are fully determined by both). Hashing the sorted list
// makes the identity order-independent, so reordered SAN lists of the
// same certificate collide as they should.
func chainHash(issuer string, sorted []string) uint64 {
	h := fnvOffset
	h = fnvString(h, issuer)
	for _, s := range sorted {
		h = fnvString(h, "|")
		h = fnvString(h, s)
	}
	return h
}

// FNV-1a, inlined to keep the package dependency-free.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// --- nil-tolerant convenience surface over the three stores ---
// The protocol layers call these instead of reaching into the stores,
// so a disabled cache costs one nil check.

// LookupDNS consults the DNS cache for an A answer at the current
// simulated time.
func (c *Cache) LookupDNS(name string) (addrs []netip.Addr, negative, ok bool) {
	if c == nil {
		return nil, false, false
	}
	return c.dns.get(name, c.clock.nowMs())
}

// PutDNS stores a positive A answer under the authority's TTL. A zero
// TTL means uncacheable and stores nothing (the answer would expire at
// the very instant of the next lookup anyway); sources that carry no
// TTL at all (HAR replays) should pass DefaultTTL().
func (c *Cache) PutDNS(name string, addrs []netip.Addr, ttlSeconds uint32) {
	if c == nil || ttlSeconds == 0 || len(addrs) == 0 {
		return
	}
	c.dns.put(canonical(name), addrs, false, c.clock.nowMs()+int64(ttlSeconds)*1000)
}

// DefaultTTL returns the positive TTL for answer sources that carry
// none.
func (c *Cache) DefaultTTL() uint32 {
	if c == nil {
		return 0
	}
	return defaultDNSTTLSeconds
}

// PutNegativeDNS stores a failed A lookup for
// defaultNegativeTTLSeconds.
func (c *Cache) PutNegativeDNS(name string) {
	if c == nil {
		return
	}
	c.dns.put(canonical(name), nil, true, c.clock.nowMs()+defaultNegativeTTLSeconds*1000)
}

// RedeemTicketProto attempts TLS resumption for host with a live ticket
// minted under the given wire protocol whose certificate coverage
// includes host. Tickets never match across protocols: the TLS session
// state of an h2 connection cannot resume an h3 session. Expired
// tickets are dropped first; a ticket expiring exactly now is dead.
func (c *Cache) RedeemTicketProto(host string, proto int) bool {
	if c == nil {
		return false
	}
	return c.tickets.s.redeem(host, proto, c.clock.nowMs())
}

// StoreTicketProto issues a session ticket covering the given SANs,
// keyed by the wire protocol that minted it. Full and resumed
// handshakes both issue fresh tickets (the TLS 1.3 NewSessionTicket
// flow). sans is retained and must not be modified.
func (c *Cache) StoreTicketProto(sans []string, proto int) {
	if c == nil {
		return
	}
	c.tickets.s.store(sans, proto, c.clock.nowMs())
}

// Handshake is what the warm state did for one fresh connection.
type Handshake struct {
	Resumed  bool // a covering session ticket was redeemed: no full handshake, no chain validation
	MemoHit  bool // full handshake whose chain validation the memo made free
	TokenHit bool // h3 only: a covering address-validation token skipped the Retry round trip
}

// ZeroRTT reports whether the connection sends application data in its
// first flight: it needs a ticket to encrypt under and a token so the
// server accepts the data before validating the path.
func (h Handshake) ZeroRTT() bool { return h.Resumed && h.TokenHit }

// Handshake settles one fresh connection to host against the warm
// state, for a certificate (issuer, sans) under the given wire
// protocol: a stored ticket whose coverage includes host resumes the
// session (resumption across hostnames, arXiv:1902.02531); otherwise a
// full handshake runs and validates the chain unless the memo has seen
// it. Either way the new session mints a ticket. Under ProtoWireH3 the
// connection also redeems and mints an address-validation token. Every
// client that opens connections decides through this one method and
// only accounts its result; a nil cache is the cold handshake (the
// zero Handshake).
func (c *Cache) Handshake(host, issuer string, sans []string, proto int) Handshake {
	var h Handshake
	if c == nil {
		return h
	}
	if h.Resumed = c.RedeemTicketProto(host, proto); !h.Resumed {
		h.MemoHit = c.chains.validate(issuer, sans)
	}
	c.StoreTicketProto(sans, proto)
	if proto == ProtoWireH3 {
		now := c.clock.nowMs()
		h.TokenHit = c.tokens.s.redeem(host, proto, now)
		c.tokens.s.store(sans, proto, now)
	}
	return h
}
