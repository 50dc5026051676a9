package dns

import (
	"net/netip"
	"sync"
)

// An Authority is an in-process authoritative DNS server over wire-format
// messages. Zones map owner names to record sets; A/AAAA answers rotate
// round-robin per query when rotation is enabled, modelling the DNS
// load balancing of RFC 1794 that the paper's §2.3 identifies as the
// reason IP-based coalescing breaks.
type Authority struct {
	mu      sync.Mutex
	records map[string][]RR // recordKey(name) -> records
	rotate  int             // global rotation cursor (LB VIP pool)
	// Rotation enables per-query round-robin of address answers.
	Rotation bool
	// AnswerLimit caps returned address records per answer (0 = all).
	AnswerLimit int

	// Failure, when non-nil, is consulted per question before resolution
	// and may force a non-success rcode (e.g. RcodeServerFailure for an
	// injected SERVFAIL). Returning RcodeSuccess resolves normally. Fault
	// injection installs it; it must be deterministic for reproducible
	// runs.
	Failure func(name string, typ uint16) uint8

	queries int64
}

// NewAuthority returns an empty authoritative server.
func NewAuthority() *Authority {
	return &Authority{
		records: make(map[string][]RR),
	}
}

// AddA registers IPv4 addresses for a name.
func (a *Authority) AddA(name string, addrs ...netip.Addr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lockedAddAddrs(name, TypeA, addrs)
}

// AddAAAA registers IPv6 addresses for a name.
func (a *Authority) AddAAAA(name string, addrs ...netip.Addr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lockedAddAddrs(name, TypeAAAA, addrs)
}

func (a *Authority) lockedAddAddrs(name string, typ uint16, addrs []netip.Addr) {
	key, n := recordKey(name), canonicalName(name)
	for _, ip := range addrs {
		a.records[key] = append(a.records[key], RR{Name: n, Type: typ, Class: ClassINET, TTL: 300, Addr: ip})
	}
}

// AddCNAME registers an alias.
func (a *Authority) AddCNAME(name, target string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key, n := recordKey(name), canonicalName(name)
	a.records[key] = append(a.records[key], RR{Name: n, Type: TypeCNAME, Class: ClassINET, TTL: 300, Target: canonicalName(target)})
}

// SetA replaces all A records for a name; used by deployments that move
// hostnames between addresses (the paper's §5.2 single-IP alignment and
// its §5.3 rollback). The replacement is one critical section: a query
// racing it sees the old address set or the new one, never the name
// with its A records removed.
func (a *Authority) SetA(name string, addrs ...netip.Addr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := recordKey(name)
	var kept []RR
	for _, rr := range a.records[key] {
		if rr.Type != TypeA {
			kept = append(kept, rr)
		}
	}
	a.records[key] = kept
	a.lockedAddAddrs(name, TypeA, addrs)
}

// Queries reports how many queries this authority has answered.
func (a *Authority) Queries() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queries
}

// HandleWire answers a wire-format query with a wire-format response.
func (a *Authority) HandleWire(query []byte) ([]byte, error) {
	q, err := Unpack(query)
	if err != nil {
		resp := &Message{Header: Header{QR: true, Rcode: RcodeFormatError}}
		return resp.Pack()
	}
	resp := a.Handle(q)
	return resp.Pack()
}

// Handle answers a parsed query: it counts the query, consults the
// Failure hook, then walks the records into the answer section.
func (a *Authority) Handle(q *Message) *Message {
	a.mu.Lock()
	a.queries++
	a.mu.Unlock()
	resp := &Message{Header: Header{
		ID: q.Header.ID, QR: true, AA: true, RD: q.Header.RD, RA: false,
	}}
	resp.Questions = q.Questions
	if len(q.Questions) == 0 {
		resp.Header.Rcode = RcodeFormatError
		return resp
	}
	question := q.Questions[0]
	if a.Failure != nil {
		if rcode := a.Failure(question.Name, question.Type); rcode != RcodeSuccess {
			// A forced rcode is not an authoritative answer.
			resp.Header.Rcode, resp.Header.AA = rcode, false
			return resp
		}
	}
	if !a.walk(question.Name, question.Type, &resp.Answers) {
		resp.Header.Rcode = RcodeNameError
	}
	return resp
}

// maxCNAMEDepth is how many aliases one resolution follows.
const maxCNAMEDepth = 8

// walk resolves (name, typ) into answers: it follows CNAME chains up to
// maxCNAMEDepth, appending each alias followed, and at the first name
// holding records of the asked type appends them. It reports false only
// when name itself does not exist; an alias exists even if its target
// does not resolve. The lock is released between the names of a chain,
// as a recursive resolution would.
func (a *Authority) walk(name string, typ uint16, answers *[]RR) bool {
	for depth := 0; depth <= maxCNAMEDepth; depth++ {
		target, exists := a.answerAt(name, typ, answers)
		if !exists {
			return depth > 0
		}
		if target == "" {
			return true
		}
		name = target
	}
	return true
}

// answerAt appends one name's part of an answer: its records of the
// asked type, rotated and capped per Rotation and AnswerLimit, or else
// its alias, whose target is returned for the walk to follow. A name
// with other record types only appends nothing (NOERROR, empty answer).
// The records are copied under a.mu: one may be replaced the moment the
// lock drops.
func (a *Authority) answerAt(name string, typ uint16, answers *[]RR) (target string, exists bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rrs, ok := a.records[recordKey(name)]
	if !ok {
		return "", false
	}
	matches, cname := 0, -1
	for i := range rrs {
		switch {
		case rrs[i].Type == typ:
			matches++
		case rrs[i].Type == TypeCNAME:
			cname = i
		}
	}
	if matches > 0 {
		first := 0
		if a.Rotation && matches > 1 {
			first = a.rotate % matches
			a.rotate++
		}
		limit := matches
		if a.AnswerLimit > 0 && limit > a.AnswerLimit {
			limit = a.AnswerLimit
		}
		for pos := 0; pos < limit; pos++ {
			*answers = append(*answers, *nthOfType(rrs, typ, (first+pos)%matches))
		}
		return "", true
	}
	if cname < 0 {
		return "", true
	}
	*answers = append(*answers, rrs[cname])
	return rrs[cname].Target, true
}

// nthOfType returns the n-th record of type typ in rrs, which holds
// more than n of them. A name holds a handful of records, so rotating
// by index costs less than copying them out would.
func nthOfType(rrs []RR, typ uint16, n int) *RR {
	for i := range rrs {
		if rrs[i].Type == typ {
			if n == 0 {
				return &rrs[i]
			}
			n--
		}
	}
	panic("dns: nthOfType past the last record of the type")
}
