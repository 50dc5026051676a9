// Package privacy quantifies the paper's §6.2 argument — the authors'
// stated *primary* motivation for ORIGIN frames: every coalesced
// connection removes cleartext signals from the network path that
// on-path observers use to profile user activity.
//
// Two signal families are modelled per page load:
//
//   - DNS queries over UDP/TCP port 53, which expose the queried
//     hostname in cleartext unless DoT/DoH is deployed;
//   - TLS ClientHello SNI values, which expose the hostname unless
//     Encrypted Client Hello is deployed.
//
// Exposure reports how many distinct hostnames an on-path observer
// learns under a client configuration, and how coalescing (which
// removes both the DNS query and the new handshake) compares with
// transport encryption (DoH/ECH, which hides the signal but still
// spends the round trips).
package privacy

import (
	"fmt"
	"slices"
	"strings"

	"respectorigin/internal/core"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
	"respectorigin/internal/parallel"
)

// ClientConfig describes the privacy-relevant client configuration.
type ClientConfig struct {
	// EncryptedDNS models DoT/DoH: DNS queries leave no cleartext
	// hostname on path.
	EncryptedDNS bool
	// EncryptedClientHello models ECH: the SNI is encrypted.
	EncryptedClientHello bool
	// Coalescing applies ORIGIN-frame coalescing (core.ModeOrigin) to
	// the timeline before counting signals.
	Coalescing bool
}

// Exposure is the per-page cleartext footprint.
type Exposure struct {
	// DNSQueries and TLSHandshakes count network events.
	DNSQueries    int
	TLSHandshakes int
	// CleartextDNSHosts and CleartextSNIHosts are the distinct
	// hostnames leaked via each channel.
	CleartextDNSHosts []string
	CleartextSNIHosts []string
}

// LeakedHosts returns the union of hostnames an on-path observer
// learns, sorted.
func (e Exposure) LeakedHosts() []string {
	out := append(slices.Clone(e.CleartextDNSHosts), e.CleartextSNIHosts...)
	slices.Sort(out)
	return slices.Compact(out)
}

// leaked is len(e.LeakedHosts()) for an Exposure from analyze, whose
// two host lists are sorted and distinct.
func (e Exposure) leaked() int {
	n := len(e.CleartextDNSHosts)
	for _, h := range e.CleartextSNIHosts {
		if _, both := slices.BinarySearch(e.CleartextDNSHosts, h); !both {
			n++
		}
	}
	return n
}

// Analyze computes the exposure of one page load under a client
// configuration. Coalescing removes the DNS query and handshake (and
// therefore both signals); encryption hides a signal but keeps the
// event.
func Analyze(p *har.Page, cfg ClientConfig) Exposure {
	var a analyzer
	var model core.Timeline
	model.Load(p)
	return a.analyze(p, &model, cfg)
}

// analyzer is the working storage of one pass analyzing pages: the two
// host lists, reused from call to call.
type analyzer struct {
	dns, sni []string
}

// analyze is Analyze for the page model has loaded. The host lists of
// the result are a's own: they are valid until the next call.
func (a *analyzer) analyze(p *har.Page, model *core.Timeline, cfg ClientConfig) Exposure {
	var coalesced []bool
	if cfg.Coalescing {
		coalesced = model.Coalescable(core.ModeOrigin, 0)
	}
	e := Exposure{CleartextDNSHosts: a.dns[:0], CleartextSNIHosts: a.sni[:0]}
	for i := range p.Entries {
		ent := &p.Entries[i]
		if coalesced != nil && coalesced[i] {
			// Rides an earlier connection: no query, no handshake.
			continue
		}
		if ent.NewDNS {
			e.DNSQueries++
			if !cfg.EncryptedDNS {
				e.CleartextDNSHosts = append(e.CleartextDNSHosts, ent.Host)
			}
		}
		if ent.NewTLS {
			e.TLSHandshakes++
			if !cfg.EncryptedClientHello {
				e.CleartextSNIHosts = append(e.CleartextSNIHosts, ent.Host)
			}
		}
	}
	slices.Sort(e.CleartextDNSHosts)
	slices.Sort(e.CleartextSNIHosts)
	e.CleartextDNSHosts = slices.Compact(e.CleartextDNSHosts)
	e.CleartextSNIHosts = slices.Compact(e.CleartextSNIHosts)
	a.dns, a.sni = e.CleartextDNSHosts, e.CleartextSNIHosts
	return e
}

// Scenario is a named client configuration for comparison tables.
type Scenario struct {
	Name string
	Cfg  ClientConfig
}

// StandardScenarios are the §6.2 comparison points: today's default
// client, coalescing alone, transport encryption alone, and both.
func StandardScenarios() []Scenario {
	return []Scenario{
		{"baseline (no coalescing, cleartext)", ClientConfig{}},
		{"origin coalescing only", ClientConfig{Coalescing: true}},
		{"DoH + ECH only", ClientConfig{
			EncryptedDNS: true, EncryptedClientHello: true}},
		{"origin coalescing + DoH + ECH", ClientConfig{
			Coalescing: true, EncryptedDNS: true, EncryptedClientHello: true}},
	}
}

// CorpusExposure aggregates a scenario over a corpus.
type CorpusExposure struct {
	Scenario          string
	MedianLeakedHosts float64
	MedianDNSQueries  float64
	MedianHandshakes  float64
}

// AnalyzeCorpus compares scenarios over a corpus of pages, across
// workers goroutines (≤ 0 selects GOMAXPROCS): each page is modelled
// once and counted under every scenario. The result is the same for
// every worker count.
func AnalyzeCorpus(pages []*har.Page, scenarios []Scenario, workers int) []CorpusExposure {
	return parallel.FoldWith(len(pages), workers, func() *core.Timeline { return new(core.Timeline) },
		func() *Tally { return NewTally(scenarios) },
		func(model *core.Timeline, t *Tally, i int) *Tally {
			model.Load(pages[i])
			t.Add(pages[i], model)
			return t
		},
		func(a, b *Tally) *Tally {
			a.Merge(b)
			return a
		}).Exposures()
}

// Tally is AnalyzeCorpus as an accumulator: every page's counts under
// every scenario, in page order, so the medians it reports are exact.
// A page costs 24 bytes per scenario; its host lists are scratch that
// the next page overwrites, and Merge takes only the counts.
type Tally struct {
	scenarios []Scenario
	rows      []pageCounts // len(scenarios) per page
	a         analyzer
}

// pageCounts is one page under one scenario.
type pageCounts struct{ leaked, dns, handshakes float64 }

// NewTally returns an empty accumulator over the scenarios.
func NewTally(scenarios []Scenario) *Tally { return &Tally{scenarios: scenarios} }

// Add counts p under every scenario; model must have p loaded.
func (t *Tally) Add(p *har.Page, model *core.Timeline) {
	for _, sc := range t.scenarios {
		e := t.a.analyze(p, model, sc.Cfg)
		t.rows = append(t.rows, pageCounts{float64(e.leaked()), float64(e.DNSQueries), float64(e.TLSHandshakes)})
	}
}

// Merge appends o's pages after t's.
func (t *Tally) Merge(o *Tally) { t.rows = append(t.rows, o.rows...) }

// Exposures returns each scenario's medians over the pages added.
func (t *Tally) Exposures() []CorpusExposure {
	n := len(t.scenarios)
	pages := 0
	if n > 0 {
		pages = len(t.rows) / n
	}
	out := make([]CorpusExposure, 0, n)
	leaked := make([]float64, pages)
	dns := make([]float64, pages)
	hs := make([]float64, pages)
	for s, sc := range t.scenarios {
		for i := range pages {
			r := t.rows[i*n+s]
			leaked[i], dns[i], hs[i] = r.leaked, r.dns, r.handshakes
		}
		out = append(out, CorpusExposure{
			Scenario:          sc.Name,
			MedianLeakedHosts: measure.Median(leaked),
			MedianDNSQueries:  measure.Median(dns),
			MedianHandshakes:  measure.Median(hs),
		})
	}
	return out
}

// Report renders a comparison table.
func Report(rows []CorpusExposure) string {
	var sb strings.Builder
	sb.WriteString("Privacy exposure per page load (§6.2), medians:\n")
	sb.WriteString("  scenario                                   leaked-hosts  dns-events  handshakes\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-42s %12.0f %11.0f %11.0f\n",
			r.Scenario, r.MedianLeakedHosts, r.MedianDNSQueries, r.MedianHandshakes)
	}
	sb.WriteString("  (coalescing removes the events; DoH/ECH only hides their contents)\n")
	return sb.String()
}
