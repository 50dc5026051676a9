package dns

import (
	"net/netip"
	"sync"
)

// An Authority is an in-process authoritative DNS server over wire-format
// messages. Zones map owner names to A records; answers rotate
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
	// and may force a non-success rcode (e.g. rcodeServerFailure for an
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

// AddA registers a name and IPv4 addresses for it. A name registered
// with none exists, and answers NOERROR with an empty answer.
func (a *Authority) AddA(name string, addrs ...netip.Addr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key, n := recordKey(name), canonicalName(name)
	rrs := a.records[key]
	for _, ip := range addrs {
		rrs = append(rrs, RR{Name: n, Type: TypeA, Class: ClassINET, TTL: 300, Addr: ip})
	}
	a.records[key] = rrs
}

// queryCount reports how many queries this authority has answered.
func (a *Authority) queryCount() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queries
}

// HandleWire answers a wire-format query with a wire-format response.
func (a *Authority) HandleWire(query []byte) ([]byte, error) {
	q, err := Unpack(query)
	if err != nil {
		resp := &Message{Header: Header{QR: true, Rcode: rcodeFormatError}}
		return resp.Pack()
	}
	resp := a.handle(q)
	return resp.Pack()
}

// handle answers a parsed query: it counts the query, consults the
// Failure hook, then copies the name's records into the answer section.
func (a *Authority) handle(q *Message) *Message {
	a.mu.Lock()
	a.queries++
	a.mu.Unlock()
	resp := &Message{Header: Header{
		ID: q.Header.ID, QR: true, AA: true, RD: q.Header.RD, RA: false,
	}}
	resp.Questions = q.Questions
	if len(q.Questions) == 0 {
		resp.Header.Rcode = rcodeFormatError
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
	if !a.answer(question.Name, question.Type, &resp.Answers) {
		resp.Header.Rcode = RcodeNameError
	}
	return resp
}

// answer appends name's records of the asked type to answers, rotated
// and capped per Rotation and AnswerLimit, and reports whether name
// exists. A name asked for another type answers nothing (NOERROR, empty
// answer).
func (a *Authority) answer(name string, typ uint16, answers *[]RR) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	rrs, ok := a.records[recordKey(name)]
	if !ok {
		return false
	}
	if typ != TypeA {
		return true
	}
	first := 0
	if a.Rotation && len(rrs) > 1 {
		first = a.rotate % len(rrs)
		a.rotate++
	}
	limit := len(rrs)
	if a.AnswerLimit > 0 && limit > a.AnswerLimit {
		limit = a.AnswerLimit
	}
	for pos := 0; pos < limit; pos++ {
		*answers = append(*answers, rrs[(first+pos)%len(rrs)])
	}
	return true
}
