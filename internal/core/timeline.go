package core

import (
	"net/netip"
	"sort"
	"strings"

	"respectorigin/internal/certs"
	"respectorigin/internal/har"
)

// Timeline is the §4 model of one page at a time, and the only
// implementation of §4.1 coalescability and reconstruction: Reconstruct
// and countPage are views of it. It owns every intermediate the model
// needs — interned addresses and ASes, per-service openers, the
// conservative-DNS groups, the rebuilt durations and start times — and
// reuses them from page to page, so a fold that keeps one Timeline per
// worker models a corpus without allocating. The zero value is ready to use; a Timeline is not
// safe for concurrent use and never modifies the pages it is given.
type Timeline struct {
	page *har.Page

	// Per page, shared by every mode: each entry's connected address and
	// origin AS as dense ids, and its measured end. A mode's service
	// identity is then arithmetic on two small integers: ids in
	// [0, len(addrIDs)) name an exact address, the ids after them an AS.
	addrIDs map[netip.Addr]int32
	asnIDs  map[uint32]int32
	addrOf  []int32
	asnOf   []int32
	end     []float64

	// Per (page, mode).
	service []int32 // entry → service id, noService when it takes no part
	opener  []int32 // service id → its earliest connection opener, -1 for none
	coal    []bool
	minDNS  map[dnsGroup]float64
	total   []float64 // rebuilt request durations
	start   []float64 // rebuilt start times

	// Per page, for Counts and CertPlan.
	hostIDs map[string]int32
	hosts   []hostState
	seen    []bool
	names   []string
}

const noService = -1

// dnsGroup is one set of coalescable requests "starting at the same
// time" on one service (§4.1).
type dnsGroup struct {
	slot    int64
	service int64
}

// hostState is what §4.2 knows about one hostname of a page.
type hostState struct {
	addr, asn int32 // ids of the first entry's address and AS
	secure    bool  // reached over HTTPS at least once
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Load points the timeline at p. Every other method answers for the
// page loaded last.
func (t *Timeline) Load(p *har.Page) {
	t.page = p
	if t.addrIDs == nil {
		t.addrIDs = make(map[netip.Addr]int32, 64)
		t.asnIDs = make(map[uint32]int32, 32)
		t.minDNS = make(map[dnsGroup]float64, 64)
		t.hostIDs = make(map[string]int32, 64)
	}
	clear(t.addrIDs)
	clear(t.asnIDs)
	n := len(p.Entries)
	t.addrOf = zeroed(t.addrOf, n)
	t.asnOf = zeroed(t.asnOf, n)
	t.end = zeroed(t.end, n)
	for i := range p.Entries {
		e := &p.Entries[i]
		id, ok := t.addrIDs[e.ServerIP]
		if !ok {
			id = int32(len(t.addrIDs))
			t.addrIDs[e.ServerIP] = id
		}
		t.addrOf[i] = id
		id, ok = t.asnIDs[e.ServerASN]
		if !ok {
			id = int32(len(t.asnIDs))
			t.asnIDs[e.ServerASN] = id
		}
		t.asnOf[i] = id
		t.end[i] = e.StartedMs + e.Timings.Total()
	}
}

// serviceOf returns the service identity of entry i under a mode, or
// noService when the entry takes no part in coalescing.
func (t *Timeline) serviceOf(mode Mode, cdnASN uint32, i int) int32 {
	e := &t.page.Entries[i]
	switch mode {
	case ModeIP:
		// IP coalescing collapses by exact connected address.
		return t.addrOf[i]
	case ModeOriginCDN:
		if e.ServerASN != cdnASN || !e.Secure {
			return noService
		}
	default: // ModeOrigin
		if !e.Secure {
			// Cleartext requests cannot ride an authenticated
			// connection; they still coalesce by IP only.
			return t.addrOf[i]
		}
	}
	return int32(len(t.addrIDs)) + t.asnOf[i]
}

// Coalescable reports, for each entry of the loaded page, whether the
// request could have been coalesced onto an earlier connection under the
// mode. The result is valid until the next call of any method.
//
// Connection openers — entries that paid DNS + connection setup
// (NewDNS) — are compared per service: the service's earliest opener
// (lowest index among equal starts) keeps its connection; every later
// opener of the same service is coalescable and sheds its setup. Entries
// that reuse an existing connection are coalescable whenever their
// service has an opener, but they carry no setup to remove. Entry 0
// (the base-page request) is never coalescable (§4.1).
func (t *Timeline) Coalescable(mode Mode, cdnASN uint32) []bool {
	entries := t.page.Entries
	n := len(entries)
	t.service = zeroed(t.service, n)
	t.coal = zeroed(t.coal, n)
	t.opener = zeroed(t.opener, len(t.addrIDs)+len(t.asnIDs))
	for s := range t.opener {
		t.opener[s] = -1
	}
	for i := range entries {
		s := t.serviceOf(mode, cdnASN, i)
		t.service[i] = s
		if s == noService || !entries[i].NewDNS {
			continue
		}
		if j := t.opener[s]; j < 0 || entries[i].StartedMs < entries[j].StartedMs {
			t.opener[s] = int32(i)
		}
	}
	for i := 1; i < n; i++ {
		s := t.service[i]
		if s == noService {
			continue
		}
		if entries[i].NewDNS {
			t.coal[i] = t.opener[s] != int32(i)
		} else {
			t.coal[i] = t.opener[s] >= 0
		}
	}
	return t.coal
}

func (t *Timeline) group(i int) dnsGroup {
	return dnsGroup{int64(t.page.Entries[i].StartedMs / concurrencyWindowMs), int64(t.service[i])}
}

// coalescedDNS is the DNS time coalescable entry i keeps: its excess
// over the smallest DNS time in its group.
func (t *Timeline) coalescedDNS(i int) float64 {
	d := t.page.Entries[i].Timings.DNS - t.minDNS[t.group(i)]
	if d < 0 {
		d = 0
	}
	return d
}

// PLT rebuilds the loaded page's timeline under the assumption that all
// coalescable requests ride existing connections (§4.1) and returns the
// resulting page load time, the end of the latest-finishing request:
//
//   - coalescable entries lose their Connect and SSL phases entirely
//     and keep no DNS time except the conservative adjustment below;
//   - among coalescable requests to the same service starting within
//     concurrencyWindowMs of each other, only the minimum DNS time is
//     subtracted from each; the excess over the minimum is retained,
//     modelling queries that were already in flight together;
//   - the CPU/dependency gap between an initiator's end and a child's
//     start is preserved, so the dependency-graph computation time is
//     unchanged;
//   - non-coalescable entries keep their phase durations and shift
//     with their initiators.
//
// Initiators reference earlier entries, so index order is dependency
// order.
func (t *Timeline) PLT(mode Mode, cdnASN uint32) float64 {
	t.Coalescable(mode, cdnASN)
	entries := t.page.Entries
	n := len(entries)

	clear(t.minDNS)
	for i := range entries {
		if !t.coal[i] {
			continue
		}
		gk := t.group(i)
		if v, ok := t.minDNS[gk]; !ok || entries[i].Timings.DNS < v {
			t.minDNS[gk] = entries[i].Timings.DNS
		}
	}

	t.total = zeroed(t.total, n)
	for i := range entries {
		tm := entries[i].Timings
		if t.coal[i] {
			tm.DNS, tm.Connect, tm.SSL = t.coalescedDNS(i), 0, 0
		}
		t.total[i] = tm.Total()
	}

	t.start = zeroed(t.start, n)
	plt := 0.0
	for i := range entries {
		ns := entries[i].StartedMs
		if parent := entries[i].Initiator; parent >= 0 {
			gap := ns - t.end[parent]
			ns = t.start[parent] + t.total[parent] + gap
			if ns < 0 {
				ns = 0
			}
		}
		t.start[i] = ns
		if v := ns + t.total[i]; v > plt {
			plt = v
		}
	}
	return plt
}

// Counts computes the §4.2 counts of the loaded page.
//
// Services are identified per host: a host served over HTTPS at least
// once groups into its origin AS (the ORIGIN-frame service); a host
// only ever reached over cleartext HTTP can coalesce by address only.
func (t *Timeline) Counts() PageCounts {
	p := t.page
	pc := PageCounts{MeasuredDNS: p.DNSQueries(), MeasuredTLS: p.TLSConnections()}
	clear(t.hostIDs)
	t.hosts = t.hosts[:0]
	for i := range p.Entries {
		e := &p.Entries[i]
		h, ok := t.hostIDs[e.Host]
		if !ok {
			h = int32(len(t.hosts))
			t.hostIDs[e.Host] = h
			t.hosts = append(t.hosts, hostState{addr: t.addrOf[i], asn: t.asnOf[i]})
		}
		if e.Secure {
			t.hosts[h].secure = true
		}
	}
	naddr := len(t.addrIDs)
	// seen[id] marks a service id; the addresses counted for IdealIP sit
	// after them.
	nsvc := naddr + len(t.asnIDs)
	t.seen = zeroed(t.seen, nsvc+naddr)
	first := func(id int) int {
		if t.seen[id] {
			return 0
		}
		t.seen[id] = true
		return 1
	}
	for _, hs := range t.hosts {
		pc.IdealIP += first(nsvc + int(hs.addr))
		if hs.secure {
			pc.IdealOrigin += first(naddr + int(hs.asn))
		} else {
			pc.IdealOrigin += first(int(hs.addr))
		}
	}
	return pc
}

// CertPlanInto computes into plan the least-effort SAN additions for the
// loaded page: hostnames of secure subresource requests whose service
// matches the base page's (same origin AS, per the model assumption) and
// that the existing certificate does not already cover.
//
// Only the certificate of the visited website changes (§4.3: "we change
// only the certificate for the website visited").
//
// The storage of plan's Additions and Coalescable is reused: a fold that
// is done with each page's plan before the next page keeps one and stops
// allocating for it.
func (t *Timeline) CertPlanInto(plan *CertPlan) {
	p := t.page
	root := &p.Entries[0]
	*plan = CertPlan{Existing: root.CertSANs,
		Additions: plan.Additions[:0], Coalescable: plan.Coalescable[:0]}
	if !root.Secure {
		// No certificate to modify; the site would first need HTTPS.
		return
	}
	clear(t.hostIDs)
	t.hostIDs[p.Host] = 0
	t.names = t.names[:0]
	for i := 1; i < len(p.Entries); i++ {
		e := &p.Entries[i]
		if !e.Secure || e.ServerASN != root.ServerASN {
			continue
		}
		h := strings.ToLower(e.Host)
		if _, dup := t.hostIDs[h]; dup {
			continue
		}
		t.hostIDs[h] = 0
		t.names = append(t.names, h)
	}
	if len(t.names) == 0 {
		return
	}
	sort.Strings(t.names)
	plan.Coalescable = append(plan.Coalescable, t.names...)
	for _, h := range plan.Coalescable {
		if !certs.Covers(plan.Existing, h) {
			plan.Additions = append(plan.Additions, h)
		}
	}
}
