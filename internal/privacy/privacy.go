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
	// Coalescing selects the connection-reuse model applied to the
	// timeline before counting signals.
	Coalescing core.Mode
	// CoalescingEnabled toggles whether Coalescing applies at all.
	CoalescingEnabled bool
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
	a.model.Load(p)
	return a.analyze(p, cfg)
}

// analyzer is the working storage of one goroutine analyzing pages: the
// §4 model of the page and the two host lists, reused from call to call.
type analyzer struct {
	model    core.Timeline
	dns, sni []string
}

// analyze is Analyze for the page a.model has loaded. The host lists of
// the result are a's own: they are valid until the next call.
func (a *analyzer) analyze(p *har.Page, cfg ClientConfig) Exposure {
	var coalesced []bool
	if cfg.CoalescingEnabled {
		coalesced = a.model.Coalescable(cfg.Coalescing, 0)
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
		{"origin coalescing only", ClientConfig{
			CoalescingEnabled: true, Coalescing: core.ModeOrigin}},
		{"DoH + ECH only", ClientConfig{
			EncryptedDNS: true, EncryptedClientHello: true}},
		{"origin coalescing + DoH + ECH", ClientConfig{
			CoalescingEnabled: true, Coalescing: core.ModeOrigin,
			EncryptedDNS: true, EncryptedClientHello: true}},
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
	type counts struct{ leaked, dns, handshakes float64 }
	perPage := parallel.MapWith(len(pages), workers, func() *analyzer { return new(analyzer) },
		func(a *analyzer, i int) []counts {
			a.model.Load(pages[i])
			row := make([]counts, len(scenarios))
			for s, sc := range scenarios {
				e := a.analyze(pages[i], sc.Cfg)
				row[s] = counts{float64(e.leaked()), float64(e.DNSQueries), float64(e.TLSHandshakes)}
			}
			return row
		})
	out := make([]CorpusExposure, 0, len(scenarios))
	leaked := make([]float64, len(pages))
	dns := make([]float64, len(pages))
	hs := make([]float64, len(pages))
	for s, sc := range scenarios {
		for i, row := range perPage {
			leaked[i], dns[i], hs[i] = row[s].leaked, row[s].dns, row[s].handshakes
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
