package dns

import (
	"fmt"
	"net/netip"
	"sync"
)

// lookupResult is the return of Resolver.lookup: the answer's address
// set in answer order and the minimum TTL across its address records
// (the budget a cache may keep it for).
type lookupResult struct {
	Addrs []netip.Addr
	TTL   uint32
}

// A Resolver is a stub resolver over an Authority. It speaks real wire
// format (queries are packed and responses unpacked, exercising the
// codec on every lookup) and counts every query it issues.
type Resolver struct {
	upstream *Authority

	mu      sync.Mutex
	nextID  uint16
	queries int64
}

// NewResolver returns a stub resolver querying upstream.
func NewResolver(upstream *Authority) *Resolver {
	return &Resolver{upstream: upstream, nextID: 1}
}

// queryCount reports how many DNS queries this resolver has sent.
func (r *Resolver) queryCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queries
}

// LookupA resolves a hostname to its IPv4 address set via the wire
// codec.
func (r *Resolver) LookupA(name string) ([]netip.Addr, error) {
	res, err := r.lookup(name, TypeA)
	return res.Addrs, err
}

// lookup issues one wire-format query for (name, typ) to the authority
// and returns the answer's address set and its TTL budget. The address
// slice belongs to the caller.
func (r *Resolver) lookup(name string, typ uint16) (lookupResult, error) {
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
		return lookupResult{}, err
	}
	respWire, err := r.upstream.HandleWire(wire)
	if err != nil {
		return lookupResult{}, err
	}
	resp, err := Unpack(respWire)
	if err != nil {
		return lookupResult{}, err
	}
	if resp.Header.ID != id {
		return lookupResult{}, fmt.Errorf("dns: response ID %d for query %d", resp.Header.ID, id)
	}
	if resp.Header.Rcode == RcodeNameError {
		return lookupResult{}, &NXDomainError{Name: name}
	}
	if resp.Header.Rcode != RcodeSuccess {
		return lookupResult{}, fmt.Errorf("dns: rcode %d for %s", resp.Header.Rcode, name)
	}
	var res lookupResult
	for _, rr := range resp.Answers {
		if rr.Type == typ {
			res.Addrs = append(res.Addrs, rr.Addr)
			if res.TTL == 0 || rr.TTL < res.TTL {
				res.TTL = rr.TTL
			}
		}
	}
	return res, nil
}

// NXDomainError reports a name that does not exist.
type NXDomainError struct{ Name string }

func (e *NXDomainError) Error() string { return "dns: NXDOMAIN for " + e.Name }
