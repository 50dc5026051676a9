package core

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"respectorigin/internal/certs"
	"respectorigin/internal/har"
	"respectorigin/internal/webgen"
)

// The ref* functions are the §4 model as it stood before Timeline:
// string service keys, a sorted start order, a cloned page per call.
// They are the oracle the kernel is held to, bit for bit.

func refServiceKey(mode Mode, cdnASN uint32) func(e *har.Entry) (string, bool) {
	switch mode {
	case ModeIP:
		return func(e *har.Entry) (string, bool) { return "ip:" + e.ServerIP.String(), true }
	case ModeOriginCDN:
		return func(e *har.Entry) (string, bool) {
			if e.ServerASN != cdnASN || !e.Secure {
				return "", false
			}
			return "as:cdn", true
		}
	default:
		return func(e *har.Entry) (string, bool) {
			if !e.Secure {
				return "ip:" + e.ServerIP.String(), true
			}
			return "as:" + strconv.FormatUint(uint64(e.ServerASN), 10), true
		}
	}
}

func refCoalescable(p *har.Page, mode Mode, cdnASN uint32) []bool {
	key := refServiceKey(mode, cdnASN)
	out := make([]bool, len(p.Entries))
	firstOpener := make(map[string]int, 8)
	order := make([]int, len(p.Entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Entries[order[a]].StartedMs < p.Entries[order[b]].StartedMs
	})
	for _, i := range order {
		e := &p.Entries[i]
		if !e.NewDNS {
			continue
		}
		k, ok := key(e)
		if !ok {
			continue
		}
		if j, seen := firstOpener[k]; !seen {
			firstOpener[k] = i
		} else if i != j && i != 0 {
			out[i] = true
		}
	}
	for i := 1; i < len(p.Entries); i++ {
		e := &p.Entries[i]
		if e.NewDNS {
			continue
		}
		k, ok := key(e)
		if !ok {
			continue
		}
		if _, seen := firstOpener[k]; seen {
			out[i] = true
		}
	}
	out[0] = false
	return out
}

func refReconstruct(p *har.Page, mode Mode, cdnASN uint32) *har.Page {
	q := p.Clone()
	coal := refCoalescable(p, mode, cdnASN)
	key := refServiceKey(mode, cdnASN)
	type groupKey struct {
		svc  string
		slot int64
	}
	minDNS := make(map[groupKey]float64)
	for i := range p.Entries {
		if !coal[i] {
			continue
		}
		e := &p.Entries[i]
		svc, _ := key(e)
		gk := groupKey{svc, int64(e.StartedMs / concurrencyWindowMs)}
		if v, ok := minDNS[gk]; !ok || e.Timings.DNS < v {
			minDNS[gk] = e.Timings.DNS
		}
	}
	for i := range q.Entries {
		if !coal[i] {
			continue
		}
		e := &q.Entries[i]
		orig := &p.Entries[i]
		svc, _ := key(orig)
		gk := groupKey{svc, int64(orig.StartedMs / concurrencyWindowMs)}
		e.Timings.DNS = orig.Timings.DNS - minDNS[gk]
		if e.Timings.DNS < 0 {
			e.Timings.DNS = 0
		}
		e.Timings.Connect = 0
		e.Timings.SSL = 0
		e.NewDNS = false
		e.NewTLS = false
		e.CertIssuer = ""
		e.CertSANs = nil
	}
	newStart := make([]float64, len(q.Entries))
	for i := range q.Entries {
		e := &q.Entries[i]
		if e.Initiator < 0 {
			newStart[i] = p.Entries[i].StartedMs
			continue
		}
		parent := e.Initiator
		gap := p.Entries[i].StartedMs - p.Entries[parent].EndMs()
		ns := newStart[parent] + q.Entries[parent].Timings.Total() + gap
		if ns < 0 {
			ns = 0
		}
		newStart[i] = ns
	}
	for i := range q.Entries {
		q.Entries[i].StartedMs = newStart[i]
	}
	q.ExtraDNS = 0
	q.ExtraTLS = 0
	q.OnLoadMs = q.LastEntryEnd()
	dom := 0.0
	for _, e := range q.Entries {
		if e.RenderBlocking || e.Initiator == -1 {
			if v := e.EndMs(); v > dom {
				dom = v
			}
		}
	}
	if dom == 0 || dom > q.OnLoadMs {
		dom = q.OnLoadMs
	}
	q.DOMLoadMs = dom
	return q
}

func refCountPage(p *har.Page) PageCounts {
	pc := PageCounts{
		MeasuredDNS: p.DNSQueries(),
		MeasuredTLS: p.TLSConnections(),
	}
	type hostState struct {
		ip     string
		asn    uint32
		secure bool
	}
	hosts := map[string]*hostState{}
	for i := range p.Entries {
		e := &p.Entries[i]
		hs, ok := hosts[e.Host]
		if !ok {
			hs = &hostState{ip: e.ServerIP.String(), asn: e.ServerASN}
			hosts[e.Host] = hs
		}
		if e.Secure {
			hs.secure = true
		}
	}
	ips := map[string]bool{}
	services := map[string]bool{}
	for _, hs := range hosts {
		ips[hs.ip] = true
		if hs.secure {
			services["as:"+strconv.FormatUint(uint64(hs.asn), 10)] = true
		} else {
			services["ip:"+hs.ip] = true
		}
	}
	pc.IdealIP = len(ips)
	pc.IdealOrigin = len(services)
	return pc
}

func refPlanCertChanges(p *har.Page) CertPlan {
	root := &p.Entries[0]
	plan := CertPlan{Existing: append([]string(nil), root.CertSANs...)}
	if !root.Secure {
		return plan
	}
	seen := map[string]bool{p.Host: true}
	for i := 1; i < len(p.Entries); i++ {
		e := &p.Entries[i]
		if !e.Secure || e.ServerASN != root.ServerASN {
			continue
		}
		h := strings.ToLower(e.Host)
		if seen[h] {
			continue
		}
		seen[h] = true
		plan.Coalescable = append(plan.Coalescable, h)
		if !certs.Covers(plan.Existing, h) {
			plan.Additions = append(plan.Additions, h)
		}
	}
	sort.Strings(plan.Coalescable)
	sort.Strings(plan.Additions)
	return plan
}

func archetypePages(t testing.TB, a webgen.Archetype, sites int) []*har.Page {
	t.Helper()
	cfg := webgen.DefaultConfig()
	cfg.Sites = sites
	cfg.Archetype = a
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Pages
}

const testCDNASN = 13335

var allModes = []Mode{ModeIP, ModeOrigin, ModeOriginCDN}

// One Timeline carried across every page of the three archetypes must
// agree exactly — float equality, no tolerance — with a fresh reference
// computation per page and mode: the coalescable set, every entry's
// rebuilt start and duration, the PLT, the whole reconstructed page, the
// §4.2 counts and the §4.3 plan.
func TestTimelineMatchesReference(t *testing.T) {
	sites := 1000
	if testing.Short() {
		sites = 150
	}
	var tl Timeline
	for _, a := range webgen.Archetypes() {
		for _, p := range archetypePages(t, a, sites) {
			tl.Load(p)
			for _, mode := range allModes {
				want := refReconstruct(p, mode, testCDNASN)
				plt := tl.PLT(mode, testCDNASN)
				if plt != want.PLT() {
					t.Fatalf("%s rank %d %v: PLT %v, reference %v", a, p.Rank, mode, plt, want.PLT())
				}
				if coal := refCoalescable(p, mode, testCDNASN); !reflect.DeepEqual(tl.coal, coal) {
					t.Fatalf("%s rank %d %v: coalescable set differs from reference", a, p.Rank, mode)
				}
				for i := range want.Entries {
					if tl.start[i] != want.Entries[i].StartedMs || tl.total[i] != want.Entries[i].Timings.Total() {
						t.Fatalf("%s rank %d %v entry %d: start %v total %v, reference %v %v", a, p.Rank, mode, i,
							tl.start[i], tl.total[i], want.Entries[i].StartedMs, want.Entries[i].Timings.Total())
					}
				}
				if got := Reconstruct(p, mode, testCDNASN); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s rank %d %v: Reconstruct differs from reference", a, p.Rank, mode)
				}
			}
			if got, want := tl.Counts(), refCountPage(p); got != want {
				t.Fatalf("%s rank %d: counts %+v, reference %+v", a, p.Rank, got, want)
			}
			var got CertPlan
			tl.CertPlanInto(&got)
			want := refPlanCertChanges(p)
			if strings.Join(got.Existing, ",") != strings.Join(want.Existing, ",") ||
				strings.Join(got.Coalescable, ",") != strings.Join(want.Coalescable, ",") ||
				strings.Join(got.Additions, ",") != strings.Join(want.Additions, ",") {
				t.Fatalf("%s rank %d: plan %+v, reference %+v", a, p.Rank, got, want)
			}
		}
	}
}

// The model's inputs need not be generator-shaped: equal start times,
// an opener that starts before the root, cleartext and mixed-case
// hosts, DNS time on a reusing entry.
func TestTimelineMatchesReferenceOnOddPages(t *testing.T) {
	p := modelPage()
	p.Entries[1].StartedMs, p.Entries[2].StartedMs = 120, 120
	p.Entries[3].Secure = false
	p.Entries[4].StartedMs = 0
	p.Entries[5].NewDNS = false
	p.Entries[5].Timings.DNS = 3
	p.Entries[2].Host = "Assets.CDNhost.com"
	q := modelPage()
	q.Entries[0].Secure = false
	q.Entries[0].StartedMs = 5
	q.Entries[1].ServerIP = q.Entries[0].ServerIP
	q.Entries[1].StartedMs = 1
	var tl Timeline
	for _, page := range []*har.Page{p, q} {
		tl.Load(page)
		for _, mode := range allModes {
			want := refReconstruct(page, mode, testCDNASN)
			if got := Reconstruct(page, mode, testCDNASN); !reflect.DeepEqual(got, want) {
				t.Errorf("%v: Reconstruct differs from reference", mode)
			}
			if plt := tl.PLT(mode, testCDNASN); plt != want.PLT() {
				t.Errorf("%v: PLT %v, reference %v", mode, plt, want.PLT())
			}
		}
		if got, want := tl.Counts(), refCountPage(page); got != want {
			t.Errorf("counts %+v, reference %+v", got, want)
		}
		var got CertPlan
		tl.CertPlanInto(&got)
		want := refPlanCertChanges(page)
		if strings.Join(got.Coalescable, ",") != strings.Join(want.Coalescable, ",") ||
			strings.Join(got.Additions, ",") != strings.Join(want.Additions, ",") {
			t.Errorf("plan %+v, reference %+v", got, want)
		}
	}
}

// Once a Timeline has seen the largest page, loading a page and asking
// for its three PLTs — what Figure 9 does per page — allocates nothing.
func TestTimelinePLTNoAllocsSteadyState(t *testing.T) {
	pages := archetypePages(t, "", 200) // "" is the baseline universe
	var tl Timeline
	run := func() {
		for _, p := range pages {
			tl.Load(p)
			for _, mode := range allModes {
				tl.PLT(mode, testCDNASN)
			}
			tl.Counts()
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("warmed-up Timeline allocates %.1f times per pass over %d pages, want 0", allocs, len(pages))
	}
}
