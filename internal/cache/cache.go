// Package cache is the warm-path state layer of the ORIGIN stack: a
// deterministic, simulated-clock-driven cache subsystem with three
// stores, modelling what a returning client keeps between page loads —
//
//   - a TTL-aware DNS answer cache (positive and negative entries,
//     per-name TTLs sourced from the authority, LRU capacity bound with
//     deterministic eviction order);
//   - a TLS session-resumption store whose tickets are keyed by
//     certificate coverage, enabling resumption across hostnames (any
//     host the issuing connection's certificate covers can redeem the
//     ticket, per arXiv:1902.02531), with a configurable lifetime, and
//     a QUIC address-validation token store keyed the same way;
//   - a validated-certificate-chain memo keyed by chain hash, so
//     repeated validations of an already-seen chain count as cache hits
//     (the paper's "cert validations saved" metric).
//
// The design discipline mirrors the faults and obs layers: a nil
// *Cache is valid everywhere and means "off", so an uncached run takes
// no lock, draws no state, and leaves every output byte identical to a
// build without the layer. Time never comes from the wall clock — every
// expiry decision reads the cache's simulated Clock, which the driving
// experiment advances explicitly, so two runs with the same visit
// schedule are byte-identical. Entries expire at their deadline
// inclusive: a lookup at exactly the expiry instant is a miss.
//
// A Cache owns its storage. Reset empties it for the next client (a
// page, a user, a zone) while keeping the maps, the DNS entries with
// their address storage, the grant queues and the index nodes, so a
// caller that resets one cache per worker stops allocating once the
// storage fits its largest client.
package cache

import "sync/atomic"

// Clock is a simulated millisecond clock. It only moves when the
// driving experiment advances it, never from wall-clock time, so every
// expiry decision is reproducible. It never runs backwards: only
// Cache.Reset rewinds it, together with every deadline it timed.
type Clock struct{ ms atomic.Int64 }

// nowMs returns the current simulated time in milliseconds.
func (c *Clock) nowMs() int64 { return c.ms.Load() }

// AdvanceMs moves the clock forward by d milliseconds (negative values
// are ignored: simulated time never runs backwards).
func (c *Clock) AdvanceMs(d int64) {
	if d > 0 {
		c.ms.Add(d)
	}
}

// Options configures a Cache.
type Options struct {
	// TicketLifetimeSeconds bounds ticket validity. 0 (the zero value)
	// selects DefaultTicketLifetimeSeconds; TicketsDisabled (any
	// negative value) disables the resumption store entirely, so every
	// handshake is full.
	TicketLifetimeSeconds int
}

// DefaultTicketLifetimeSeconds is the ticket lifetime an Options zero
// value selects.
const DefaultTicketLifetimeSeconds = 7200

// Fixed by the model: nothing configures them.
const (
	// defaultDNSCapacity bounds the DNS cache entry count; the least
	// recently used entry is evicted first.
	defaultDNSCapacity = 4096
	// defaultNegativeTTLSeconds is the lifetime of negative
	// (failed-lookup) DNS entries.
	defaultNegativeTTLSeconds = 60
	// defaultTokenLifetimeSeconds bounds QUIC address-validation token
	// validity. It is deliberately longer than the ticket lifetime:
	// address-validation tokens prove the client's address, not a
	// session, and servers hand them out with day-scale validity in the
	// shared-validation model.
	defaultTokenLifetimeSeconds = 86_400
	// defaultDNSTTLSeconds is the positive-entry TTL used when the
	// answer source carries none (HAR replays).
	defaultDNSTTLSeconds = 300
	// DefaultRevisitIntervalMs is the simulated time between successive
	// visits in warm/cold sequences.
	DefaultRevisitIntervalMs = 60_000
)

// TicketsDisabled, assigned to Options.TicketLifetimeSeconds, turns the
// resumption store off (useful to isolate the cert-memo contribution).
const TicketsDisabled = -1

// withDefaults returns o with zero values replaced by defaults.
func (o Options) withDefaults() Options {
	if o.TicketLifetimeSeconds == 0 {
		o.TicketLifetimeSeconds = DefaultTicketLifetimeSeconds
	}
	return o
}

// Cache bundles the three warm-path stores behind one clock. A nil
// *Cache disables everything; every method is nil-tolerant.
type Cache struct {
	clock Clock

	dns     *dnsCache
	tickets *ticketStore
	tokens  *tokenStore
	chains  *certMemo
}

// New returns a Cache with the given options (zero values select the
// documented defaults).
func New(opts Options) *Cache {
	opts = opts.withDefaults()
	c := &Cache{}
	c.dns = newDNSCache()
	c.tickets = &ticketStore{newCoverStore(int64(opts.TicketLifetimeSeconds) * 1000)}
	c.tokens = &tokenStore{newCoverStore(defaultTokenLifetimeSeconds * 1000)}
	c.chains = newCertMemo()
	return c
}

// Reset empties every store and rewinds the clock, leaving c
// observably equal to a New cache of the same options: the same answers
// and lengths for any later schedule. The storage is kept for reuse.
// A nil cache ignores it.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.clock.ms.Store(0)
	c.dns.reset()
	c.tickets.s.reset()
	c.tokens.s.reset()
	c.chains.reset()
}

// Clock returns the cache's simulated clock (nil cache: a throwaway
// clock, so callers need not nil-check before advancing time).
func (c *Cache) Clock() *Clock {
	if c == nil {
		return &Clock{}
	}
	return &c.clock
}
