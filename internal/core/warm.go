package core

import "respectorigin/internal/cache"

// VisitCosts is the per-visit cost ledger of a warm/cold page-load
// sequence: what one visit (or a sum of visits) actually paid in DNS
// queries, TLS handshakes and certificate validations, with every
// avoided unit attributed to exactly one cause — coalescing reuse,
// DNS cache, ticket resumption, or the cert memo — at the moment it
// was avoided. That discipline makes the savings decomposition exact
// by construction:
//
//	ConnsNeeded    = ReusedConns + ResumedTLS + FullHandshakes
//	FullHandshakes = Validations + CertMemoHits
//	lookups needed = DNSQueries + DNSCacheHits + DNSNegHits + DNSCoalesced
//
// so differences between two visits of the same page decompose into
// per-cause differences with no remainder.
type VisitCosts struct {
	Pages int // page loads folded into this ledger

	// DNS lookups by how they were satisfied.
	DNSQueries   int // wire queries actually issued
	DNSCacheHits int // served from the positive DNS cache
	DNSNegHits   int // answered by the negative DNS cache
	DNSCoalesced int // skipped entirely (request rode existing state)

	// TLS connections by how they were satisfied.
	ConnsNeeded    int // secure requests that needed a connection
	ReusedConns    int // satisfied by coalescing/pool reuse
	ResumedTLS     int // established via session-ticket resumption
	FullHandshakes int // full TLS handshakes performed

	// Chain validations within the full handshakes.
	Validations  int // validations actually performed
	CertMemoHits int // skipped via the validated-chain memo

	// h3-only decomposition, all zero for h1/h2 replays. Every fresh h3
	// connection either redeems an address-validation token or performs
	// address validation (the Retry round trip), so for an h3 ledger
	//
	//	AddrTokenHits + AddrValidations = ResumedTLS + FullHandshakes
	//
	// and ZeroRTT counts the resumed connections that also hit a token.
	ZeroRTT         int // 0-RTT handshakes (ticket + token both redeemed)
	AddrTokenHits   int // address-validation tokens redeemed
	AddrValidations int // address validations performed (no token cover)
}

// Add folds o into v field-wise. Addition is associative and
// commutative, so per-page ledgers merge identically for any shard
// order or worker count.
func (v *VisitCosts) Add(o VisitCosts) {
	v.Pages += o.Pages
	v.DNSQueries += o.DNSQueries
	v.DNSCacheHits += o.DNSCacheHits
	v.DNSNegHits += o.DNSNegHits
	v.DNSCoalesced += o.DNSCoalesced
	v.ConnsNeeded += o.ConnsNeeded
	v.ReusedConns += o.ReusedConns
	v.ResumedTLS += o.ResumedTLS
	v.FullHandshakes += o.FullHandshakes
	v.Validations += o.Validations
	v.CertMemoHits += o.CertMemoHits
	v.ZeroRTT += o.ZeroRTT
	v.AddrTokenHits += o.AddrTokenHits
	v.AddrValidations += o.AddrValidations
}

// LookupsNeeded is the visit's total DNS demand, however satisfied.
// It is constant across revisits of the same page, which is what makes
// per-cause DNS savings exact.
func (v VisitCosts) LookupsNeeded() int {
	return v.DNSQueries + v.DNSCacheHits + v.DNSNegHits + v.DNSCoalesced
}

// Consistent reports whether the ledger's internal identities hold;
// a false return means some unit was double-counted or dropped and the
// savings decomposition cannot be exact.
func (v VisitCosts) Consistent() bool {
	if v.ConnsNeeded != v.ReusedConns+v.ResumedTLS+v.FullHandshakes ||
		v.FullHandshakes != v.Validations+v.CertMemoHits {
		return false
	}
	// The h3 address-validation identity is "zero or exact": h1/h2
	// ledgers carry no token state at all, h3 ledgers must account every
	// fresh connection as either a token hit or a validation.
	addr := v.AddrTokenHits + v.AddrValidations
	return addr == 0 || addr == v.ResumedTLS+v.FullHandshakes
}

// AddHandshake accounts one fresh connection's handshake, as the
// warm-path cache settled it, to exactly one cause per identity above:
// resumed, or full with the validation performed or memoised — and under
// h3 a token hit or an address validation.
func (v *VisitCosts) AddHandshake(h cache.Handshake, proto Protocol) {
	switch {
	case h.Resumed:
		v.ResumedTLS++
	case h.MemoHit:
		v.FullHandshakes++
		v.CertMemoHits++
	default:
		v.FullHandshakes++
		v.Validations++
	}
	if proto != ProtoH3 {
		return
	}
	if h.TokenHit {
		v.AddrTokenHits++
	} else {
		v.AddrValidations++
	}
	if h.ZeroRTT() {
		v.ZeroRTT++
	}
}
