package dns

import (
	"fmt"
	"net/netip"
	"sync"

	"respectorigin/internal/cache"
)

// Source reports where a lookup's answer came from.
type Source string

// Answer sources.
const (
	// SourceAuthority: the answer came off the wire from the upstream
	// authority (a real query was issued).
	SourceAuthority Source = "authority"
	// SourceCache: the answer was served from the warm-path DNS cache;
	// no query left the resolver.
	SourceCache Source = "cache"
	// SourceNegativeCache: a cached failure was served; no query left
	// the resolver and the lookup failed immediately.
	SourceNegativeCache Source = "negative-cache"
)

// LookupResult is the unified return of Resolver.Lookup: the answer's
// address set in answer order, the minimum TTL across its address
// records (the budget a cache may keep it for), and where it came from.
type LookupResult struct {
	Addrs  []netip.Addr
	TTL    uint32
	Source Source
}

// A Resolver is a stub resolver over an Authority. It speaks real wire
// format (queries are packed and responses unpacked, exercising the
// codec on every lookup), counts every query it issues, consults the
// warm-path cache before the wire when one is installed, and keeps the
// per-name answer sets that the Firefox coalescing policy caches.
type Resolver struct {
	upstream *Authority

	mu      sync.Mutex
	nextID  uint16
	queries int64
	cache   *cache.Cache
	// lastAnswers records the most recent address set per hostname, in
	// answer order. Browser policies read this to build connected-sets
	// and available-sets (§2.3).
	lastAnswers map[string][]netip.Addr
}

// NewResolver returns a stub resolver querying upstream.
func NewResolver(upstream *Authority) *Resolver {
	return &Resolver{upstream: upstream, nextID: 1, lastAnswers: make(map[string][]netip.Addr)}
}

// UseCache installs a warm-path cache consulted before the authority on
// every lookup; nil (the default) disables caching and restores the
// query-always behaviour byte for byte.
func (r *Resolver) UseCache(c *cache.Cache) {
	r.mu.Lock()
	r.cache = c
	r.mu.Unlock()
}

// Queries reports how many DNS queries this resolver has sent. Lookups
// served from cache issue none.
func (r *Resolver) Queries() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queries
}

// ResetQueries zeroes the query counter (between measurement trials).
func (r *Resolver) ResetQueries() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries = 0
}

// LookupA resolves a hostname to its IPv4 address set via the wire
// codec, following CNAMEs.
func (r *Resolver) LookupA(name string) ([]netip.Addr, error) {
	res, err := r.Lookup(name, TypeA)
	return res.Addrs, err
}

// LookupAAAA resolves a hostname to its IPv6 address set.
func (r *Resolver) LookupAAAA(name string) ([]netip.Addr, error) {
	res, err := r.Lookup(name, TypeAAAA)
	return res.Addrs, err
}

// Lookup is the unified resolver surface: it resolves (name, type)
// through the cache when one is installed and the authority otherwise,
// returning the address set, its remaining TTL budget, and the source
// that served it. Cache hits — positive and negative — issue no wire
// query; misses fall through to the authority and populate the cache with the answer's
// minimum TTL (zero-TTL answers are uncacheable), or a negative entry
// on NXDOMAIN. The returned address slice belongs to the caller: a
// cache hit is copied out of the cache's storage.
func (r *Resolver) Lookup(name string, typ uint16) (LookupResult, error) {
	r.mu.Lock()
	c := r.cache
	r.mu.Unlock()

	if c != nil {
		if addrs, negative, ok := c.DNS.Get(name, typ, c.Clock().NowMs()); ok {
			if negative {
				return LookupResult{Source: SourceNegativeCache}, &NXDomainError{Name: name}
			}
			return LookupResult{Addrs: append([]netip.Addr(nil), addrs...), Source: SourceCache}, nil
		}
	}

	res, err := r.lookupWire(name, typ)
	if c == nil {
		return res, err
	}
	switch {
	case err == nil && len(res.Addrs) > 0:
		c.DNS.Put(name, typ, res.Addrs, res.TTL, c.Clock().NowMs())
	case err != nil:
		if _, nx := err.(*NXDomainError); nx {
			c.DNS.PutNegative(name, typ, uint32(c.Opts().NegativeTTLSeconds), c.Clock().NowMs())
		}
	}
	return res, err
}

// lookupWire issues one wire-format query to the authority.
func (r *Resolver) lookupWire(name string, typ uint16) (LookupResult, error) {
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	r.queries++
	r.mu.Unlock()

	q := &Message{
		Header:    Header{ID: id, RD: true},
		Questions: []Question{{Name: name, Type: typ, Class: ClassINET}},
	}
	wire, err := q.Pack()
	if err != nil {
		return LookupResult{}, err
	}
	respWire, err := r.upstream.HandleWire(wire)
	if err != nil {
		return LookupResult{}, err
	}
	resp, err := Unpack(respWire)
	if err != nil {
		return LookupResult{}, err
	}
	if resp.Header.ID != id {
		return LookupResult{}, fmt.Errorf("dns: response ID %d for query %d", resp.Header.ID, id)
	}
	if resp.Header.Rcode == RcodeNameError {
		return LookupResult{Source: SourceAuthority}, &NXDomainError{Name: name}
	}
	if resp.Header.Rcode != RcodeSuccess {
		return LookupResult{Source: SourceAuthority}, fmt.Errorf("dns: rcode %d for %s", resp.Header.Rcode, name)
	}
	res := LookupResult{Source: SourceAuthority}
	for _, rr := range resp.Answers {
		if rr.Type == typ {
			res.Addrs = append(res.Addrs, rr.Addr)
			if res.TTL == 0 || rr.TTL < res.TTL {
				res.TTL = rr.TTL
			}
		}
	}
	if len(res.Addrs) > 0 {
		r.mu.Lock()
		r.lastAnswers[canonicalName(name)] = res.Addrs
		r.mu.Unlock()
	}
	return res, nil
}

// LastAnswer returns the most recently observed address set for name.
func (r *Resolver) LastAnswer(name string) []netip.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]netip.Addr(nil), r.lastAnswers[canonicalName(name)]...)
}

// NXDomainError reports a name that does not exist.
type NXDomainError struct{ Name string }

func (e *NXDomainError) Error() string { return "dns: NXDOMAIN for " + e.Name }
