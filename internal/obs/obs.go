// Package obs is the observability layer of the ORIGIN stack: atomic
// counters and span-style per-page-load event traces, threaded through
// the protocol layers behind the Recorder interface.
//
// The design discipline mirrors the fault layer's zero plan: a nil
// Recorder is valid everywhere and means "off". Every call site goes
// through the nil-tolerant package helpers (Count, Emit), so an
// uninstrumented run performs no allocation, takes no lock, and leaves
// every output byte identical to a build without the layer.
// Three types hold a recorder — browser.Browser, cdn.Experiment and
// h2.Server — each in an exported Rec field set before first use.
//
// Three concrete recorders cover the stack's needs:
//
//   - *Metrics: lock-free counters, renderable as text and publishable
//     as expvar for the -metrics-addr endpoints.
//   - *Trace: an append-only event log whose NDJSON serialization is
//     deterministic — events sort by (Rank, Seq) regardless of the
//     goroutine interleaving that produced them.
//   - multi: a fan-out combining any of the above.
package obs

// Event kinds, in rough page-load order. A per-page-load span is the
// Rank-ordered sequence page_start … page_end; everything between is
// one hop of the DNS → TLS → H2 stream → ORIGIN frame → coalesce
// decision timeline.
const (
	KindPageStart     = "page_start"
	KindDNSQuery      = "dns_query"
	KindDNSCacheHit   = "dns_cache_hit"
	KindDNSFail       = "dns_fail"
	KindTLSHandshake  = "tls_handshake"
	KindTLSResume     = "tls_resume"
	KindQUICHandshake = "quic_handshake"
	KindZeroRTT       = "zero_rtt"
	KindAddrTokenHit  = "addr_token_hit"
	KindCertMemoHit   = "cert_memo_hit"
	KindConnectFail   = "connect_fail"
	KindStreamOpen    = "h2_stream_open"
	KindOriginFrame   = "origin_frame"
	KindCoalesceHit   = "coalesce_hit"
	KindMisdirected   = "421_fallback"
	KindRetry         = "retry"
	KindGoAway        = "goaway"
	KindReset         = "reset"
	KindPageEnd       = "page_end"
)

// Event is one record of a page-load span. Rank identifies the page
// load (site rank for corpus traces, visit index for deployment
// traces); Seq orders events within it. The pair is assigned by the
// emitting layer from deterministic state, never from wall-clock time,
// so a trace is reproducible byte for byte.
type Event struct {
	Rank   int     `json:"rank"`
	Seq    int     `json:"seq"`
	Kind   string  `json:"kind"`
	Host   string  `json:"host,omitempty"`
	Conn   string  `json:"conn,omitempty"`   // carrying connection's hostname
	MS     float64 `json:"ms,omitempty"`     // modelled duration, when known
	N      int     `json:"n,omitempty"`      // kind-specific count
	Detail string  `json:"detail,omitempty"` // e.g. "origin", "ip", "race"

	// Per-page summary, set on page_end events: the §4.2 measured
	// counts and ideal-coalescing targets the funnel table aggregates.
	DNS         int `json:"dns,omitempty"`
	TLS         int `json:"tls,omitempty"`
	IdealIP     int `json:"ideal_ip,omitempty"`
	IdealOrigin int `json:"ideal_origin,omitempty"`
}

// Recorder receives metrics and trace events. Implementations must be
// safe for concurrent use; a nil Recorder is a valid no-op and callers
// are expected to pass one through the package helpers below.
type Recorder interface {
	// Count adds delta to the named counter.
	Count(name string, delta int64)
	// Event appends one trace event.
	Event(ev Event)
}

// Count adds delta to r's named counter; nil r is a no-op.
func Count(r Recorder, name string, delta int64) {
	if r != nil {
		r.Count(name, delta)
	}
}

// Emit appends a trace event to r; nil r is a no-op.
func Emit(r Recorder, ev Event) {
	if r != nil {
		r.Event(ev)
	}
}

// multi fans every call out to each member.
type multi []Recorder

// Multi combines recorders into one. Nil members are dropped; the
// result is nil when nothing remains, preserving the no-op fast path.
func Multi(rs ...Recorder) Recorder {
	var out multi
	for _, r := range rs {
		if r != nil {
			out = append(out, r)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

func (m multi) Count(name string, delta int64) {
	for _, r := range m {
		r.Count(name, delta)
	}
}

func (m multi) Event(ev Event) {
	for _, r := range m {
		r.Event(ev)
	}
}
