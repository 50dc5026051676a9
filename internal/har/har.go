// Package har models page-load timelines in the spirit of the HTTP
// Archive (HAR) format the paper's dataset was collected in: every
// subresource request carries the phase timings {blocked, dns, connect,
// ssl, send, wait, receive}, its destination, protocol, certificate
// context and the request that triggered it.
//
// The §4.1 timeline reconstruction operates directly on these values,
// so this package also defines the invariants a well-formed timeline
// satisfies and a compact JSON serialization for dataset corpora.
package har

import (
	"fmt"
	"math"
	"net/netip"
	"strings"
)

// Timings are the per-phase durations of a request in milliseconds.
// A zero value means the phase did not occur (e.g. no DNS query when a
// connection was reused).
type Timings struct {
	Blocked float64 `json:"blocked"` // queueing + dependency wait
	DNS     float64 `json:"dns"`
	Connect float64 `json:"connect"` // TCP handshake
	SSL     float64 `json:"ssl"`     // TLS handshake
	Send    float64 `json:"send"`
	Wait    float64 `json:"wait"` // first byte
	Receive float64 `json:"receive"`
}

// Total returns the wall-clock duration of the request.
func (t Timings) Total() float64 {
	return t.Blocked + t.DNS + t.Connect + t.SSL + t.Send + t.Wait + t.Receive
}

// Entry is one request in a page-load timeline.
type Entry struct {
	// StartedMs is the request start relative to navigation start.
	StartedMs float64 `json:"started_ms"`
	URL       string  `json:"url"`
	Host      string  `json:"host"`
	Method    string  `json:"method"`
	Protocol  string  `json:"protocol"` // "h2", "http/1.1", "h3", ...
	Status    int     `json:"status"`
	MimeType  string  `json:"mime_type"`
	BodySize  int64   `json:"body_size"`
	Secure    bool    `json:"secure"`

	// ServerIP is the connected address; ServerASN its origin AS.
	ServerIP  netip.Addr `json:"server_ip"`
	ServerASN uint32     `json:"server_asn"`

	// DNSAnswer is the full address set DNS returned for Host (§2.3:
	// browsers' coalescing decisions depend on the whole set).
	DNSAnswer []netip.Addr `json:"dns_answer,omitempty"`

	// NewDNS and NewTLS report whether this request issued a fresh DNS
	// query / TLS handshake rather than reusing state.
	NewDNS bool `json:"new_dns"`
	NewTLS bool `json:"new_tls"`

	// Certificate context, present when NewTLS.
	CertIssuer string   `json:"cert_issuer,omitempty"`
	CertSANs   []string `json:"cert_sans,omitempty"`

	// Initiator is the index of the entry that triggered this request;
	// -1 for the root document.
	Initiator int `json:"initiator"`

	// RenderBlocking marks requests on the critical path (CSS, sync JS).
	RenderBlocking bool `json:"render_blocking,omitempty"`

	Timings Timings `json:"timings"`
}

// EndMs returns when the request finished, relative to navigation start.
func (e Entry) EndMs() float64 { return e.StartedMs + e.Timings.Total() }

// Page is a complete page-load record.
type Page struct {
	URL     string  `json:"url"`
	Host    string  `json:"host"`
	Rank    int     `json:"rank"` // popularity rank (1-based)
	Entries []Entry `json:"entries"`

	// DOMLoadMs and OnLoadMs are the DOMContentLoaded and load events.
	DOMLoadMs float64 `json:"dom_load_ms"`
	OnLoadMs  float64 `json:"on_load_ms"`

	// ExtraDNS and ExtraTLS count DNS queries and TLS connections from
	// browser race behaviours — happy eyeballs and speculative
	// connections (§4.2) — that do not correspond to any entry.
	ExtraDNS int `json:"extra_dns,omitempty"`
	ExtraTLS int `json:"extra_tls,omitempty"`
}

// PLT returns the page load time: the recorded onLoad event if present,
// otherwise the last entry end.
func (p *Page) PLT() float64 {
	if p.OnLoadMs > 0 {
		return p.OnLoadMs
	}
	return p.LastEntryEnd()
}

// LastEntryEnd returns the finish time of the latest-finishing entry.
func (p *Page) LastEntryEnd() float64 {
	end := 0.0
	for i := range p.Entries {
		if v := p.Entries[i].EndMs(); v > end {
			end = v
		}
	}
	return end
}

// DNSQueries counts DNS queries: entries that issued a fresh query plus
// race-effect extras.
func (p *Page) DNSQueries() int {
	n := p.ExtraDNS
	for i := range p.Entries {
		if p.Entries[i].NewDNS {
			n++
		}
	}
	return n
}

// TLSConnections counts TLS handshakes: entries that performed a fresh
// handshake plus race-effect extras.
func (p *Page) TLSConnections() int {
	n := p.ExtraTLS
	for i := range p.Entries {
		if p.Entries[i].NewTLS {
			n++
		}
	}
	return n
}

// validate checks timeline invariants:
//
//   - at least one entry, and entry 0 is the root (Initiator == -1);
//   - initiators reference earlier entries;
//   - timings are non-negative and finite;
//   - a child never starts before its initiator started.
func (p *Page) validate() error {
	if len(p.Entries) == 0 {
		return fmt.Errorf("har: page %s has no entries", p.URL)
	}
	if p.Entries[0].Initiator != -1 {
		return fmt.Errorf("har: page %s entry 0 must be the root", p.URL)
	}
	for i, e := range p.Entries {
		if i > 0 && (e.Initiator < 0 || e.Initiator >= i) {
			return fmt.Errorf("har: entry %d initiator %d out of range", i, e.Initiator)
		}
		for _, v := range []float64{e.Timings.Blocked, e.Timings.DNS, e.Timings.Connect,
			e.Timings.SSL, e.Timings.Send, e.Timings.Wait, e.Timings.Receive, e.StartedMs} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("har: entry %d (%s) has invalid timing %v", i, e.URL, v)
			}
		}
		if i > 0 {
			parent := p.Entries[e.Initiator]
			if e.StartedMs+1e-9 < parent.StartedMs {
				return fmt.Errorf("har: entry %d starts before its initiator", i)
			}
		}
	}
	return nil
}

// Clone deep-copies the page (entries are value types except slices).
func (p *Page) Clone() *Page {
	q := *p
	q.Entries = make([]Entry, len(p.Entries))
	copy(q.Entries, p.Entries)
	for i := range q.Entries {
		q.Entries[i].DNSAnswer = append([]netip.Addr(nil), p.Entries[i].DNSAnswer...)
		q.Entries[i].CertSANs = append([]string(nil), p.Entries[i].CertSANs...)
	}
	return &q
}

// Waterfall renders an ASCII waterfall of the page (Figure 2 style):
// one row per request, proportional phase bars.
//
//	1 www.example.com          |BBDDCCSSWWRR         |
func Waterfall(p *Page, width int) string {
	if width <= 0 {
		width = 80
	}
	end := p.LastEntryEnd()
	if end <= 0 {
		end = 1
	}
	scale := float64(width) / end
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (PLT %.0f ms)\n", p.URL, p.PLT())
	for i, e := range p.Entries {
		bar := make([]byte, width)
		for j := range bar {
			bar[j] = ' '
		}
		pos := e.StartedMs * scale
		draw := func(dur float64, ch byte) {
			n := dur * scale
			for j := int(pos); j < int(pos+n) && j < width; j++ {
				bar[j] = ch
			}
			pos += n
		}
		draw(e.Timings.Blocked, '.')
		draw(e.Timings.DNS, 'D')
		draw(e.Timings.Connect, 'C')
		draw(e.Timings.SSL, 'S')
		draw(e.Timings.Send, 's')
		draw(e.Timings.Wait, 'w')
		draw(e.Timings.Receive, 'R')
		host := e.Host
		if len(host) > 28 {
			host = host[:28]
		}
		fmt.Fprintf(&b, "%2d %-28s |%s|\n", i+1, host, bar)
	}
	return b.String()
}
