// Package core implements the paper's primary contribution: the
// best-case connection-coalescing model of §4.
//
// Given a corpus of page-load timelines (internal/har), the model
//
//   - identifies which subresource requests could have been coalesced
//     under IP-based coalescing, ORIGIN-frame coalescing, or
//     ORIGIN-frame coalescing restricted to a single CDN (§4.1);
//   - reconstructs each timeline conservatively, removing only the
//     smallest DNS time among concurrently-issued coalescable requests
//     and the connection-establishment phases (§4.1, Figure 2);
//   - predicts the resulting DNS query, TLS connection and certificate
//     validation counts (§4.2, Figure 3);
//   - computes the least-effort certificate SAN changes that enable the
//     coalescing (§4.3, Figures 4–5, Tables 8–9).
//
// The model's central assumption, stated in §4.1, is that every server
// in an autonomous system can authoritatively serve all content of that
// AS; a "service" is therefore identified with an origin AS.
package core

import "respectorigin/internal/har"

// Mode selects the coalescing discipline being modelled.
type Mode int

// Modes.
const (
	// ModeIP models ideal IP-based coalescing: connections to the same
	// server address collapse ("missed opportunities", no changes).
	ModeIP Mode = iota
	// ModeOrigin models ideal ORIGIN-frame coalescing: connections to
	// the same service (origin AS) collapse.
	ModeOrigin
	// ModeOriginCDN models ORIGIN-frame coalescing deployed at a single
	// CDN only: requests collapse only within that CDN's AS.
	ModeOriginCDN
)

func (m Mode) String() string {
	switch m {
	case ModeIP:
		return "ideal-ip"
	case ModeOrigin:
		return "ideal-origin"
	case ModeOriginCDN:
		return "cdn-origin"
	default:
		return "unknown"
	}
}

// concurrencyWindowMs groups coalescable requests that start within
// this window as "starting at the same time" for the conservative
// minimum-DNS subtraction of §4.1.
const concurrencyWindowMs = 50

// Reconstruct returns the page as Timeline.PLT rebuilds it: coalescable
// entries without their setup phases, every entry at its new start
// time. The input page is not modified. ExtraDNS/ExtraTLS race effects
// are dropped in the reconstruction: coalesced connections are not
// raced.
func Reconstruct(p *har.Page, mode Mode, cdnASN uint32) *har.Page {
	var t Timeline
	t.Load(p)
	plt := t.PLT(mode, cdnASN)
	q := p.Clone()
	dom := 0.0
	for i := range q.Entries {
		e := &q.Entries[i]
		if t.coal[i] {
			e.Timings.DNS, e.Timings.Connect, e.Timings.SSL = t.coalescedDNS(i), 0, 0
			e.NewDNS = false
			e.NewTLS = false
			e.CertIssuer = ""
			e.CertSANs = nil
		}
		e.StartedMs = t.start[i]
		if e.RenderBlocking || e.Initiator == -1 {
			if v := e.EndMs(); v > dom {
				dom = v
			}
		}
	}
	q.ExtraDNS = 0
	q.ExtraTLS = 0
	q.OnLoadMs = plt
	if dom == 0 || dom > q.OnLoadMs {
		dom = q.OnLoadMs
	}
	q.DOMLoadMs = dom
	return q
}

// PageCounts are the §4.2 per-page quantities.
type PageCounts struct {
	MeasuredDNS int
	MeasuredTLS int

	IdealIP     int // connections under ideal IP coalescing
	IdealOrigin int // connections (= DNS = validations) under ORIGIN
}

// countPage computes the §4.2 counts for one page.
func countPage(p *har.Page) PageCounts {
	var t Timeline
	t.Load(p)
	return t.Counts()
}
