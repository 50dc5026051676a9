package obs

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"respectorigin/internal/measure"
)

// histBuckets are the fixed upper bounds (in milliseconds) of the
// latency histograms: powers of two from 1 ms to ~65 s plus a catch-all
// overflow bucket. Fixed bounds keep Observe lock-free after the first
// sample and make merged snapshots comparable across runs.
var histBuckets = func() []float64 {
	var b []float64
	for ms := 1.0; ms <= 65536; ms *= 2 {
		b = append(b, ms)
	}
	return b
}()

// Hist is a fixed-bucket latency histogram. All mutation is atomic; a
// Hist is safe for concurrent use by any number of goroutines.
type Hist struct {
	counts  []atomic.Int64 // one per bucket bound, plus overflow at the end
	n       atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
	minBits atomic.Uint64 // float64 min
	maxBits atomic.Uint64 // float64 max
}

func newHist() *Hist {
	h := &Hist{counts: make([]atomic.Int64, len(histBuckets)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample in milliseconds.
func (h *Hist) Observe(ms float64) {
	i := sort.SearchFloat64s(histBuckets, ms)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+ms)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if ms >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(ms)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if ms <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(ms)) {
			break
		}
	}
}

// N returns the sample count.
func (h *Hist) N() int64 { return h.n.Load() }

// Sum returns the sample sum in milliseconds.
func (h *Hist) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// quantile interpolates the p-quantile from the bucket counts, assuming
// samples are uniform within a bucket (the standard fixed-bucket
// estimator). Exact observed min/max bound the extreme buckets.
func (h *Hist) quantile(counts []int64, total int64, p float64) float64 {
	if total == 0 {
		return 0
	}
	target := p * float64(total)
	cum := int64(0)
	min := math.Float64frombits(h.minBits.Load())
	max := math.Float64frombits(h.maxBits.Load())
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			lo := 0.0
			if i > 0 {
				lo = histBuckets[i-1]
			}
			hi := max
			if i < len(histBuckets) && histBuckets[i] < hi {
				hi = histBuckets[i]
			}
			if lo < min {
				lo = min
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return max
}

// Summary renders the histogram as a measure.Summary, the same order-
// statistics container every table in internal/report consumes, so
// report code renders live metrics and corpus samples identically.
// Quantiles are bucket-interpolated estimates, exact at min/max.
func (h *Hist) Summary() measure.Summary {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return measure.Summary{}
	}
	q := func(p float64) float64 { return h.quantile(counts, total, p) }
	s := measure.Summary{
		N:      int(total),
		Min:    math.Float64frombits(h.minBits.Load()),
		Max:    math.Float64frombits(h.maxBits.Load()),
		Mean:   h.Sum() / float64(total),
		Median: q(0.50),
		P25:    q(0.25),
		P75:    q(0.75),
		P90:    q(0.90),
		P95:    q(0.95),
		P99:    q(0.99),
		P999:   q(0.999),
	}
	s.IQR = s.P75 - s.P25
	return s
}

// Quantile returns the bucket-interpolated p-quantile of the histogram
// over a consistent snapshot of the bucket counts. It is an estimate
// (uniform-within-bucket), exact at the observed min and max; SLO
// reporting that needs exact tail order statistics keeps the sample
// and asks measure.Summarize.
func (h *Hist) Quantile(p float64) float64 {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return h.quantile(counts, total, p)
}

// Metrics is the counter + histogram recorder. The zero value is not
// usable; call NewMetrics. Trace events are counted by kind but not
// retained — pair with a *Trace via Multi when a trace is wanted.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*atomic.Int64
	hists    map[string]*Hist
}

// NewMetrics returns an empty metrics recorder.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*atomic.Int64),
		hists:    make(map[string]*Hist),
	}
}

var _ Recorder = (*Metrics)(nil)

func (m *Metrics) counter(name string) *atomic.Int64 {
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		c = new(atomic.Int64)
		m.counters[name] = c
	}
	return c
}

// Count implements Recorder.
func (m *Metrics) Count(name string, delta int64) {
	m.counter(name).Add(delta)
}

// Observe implements Recorder.
func (m *Metrics) Observe(hist string, ms float64) {
	m.mu.RLock()
	h := m.hists[hist]
	m.mu.RUnlock()
	if h == nil {
		m.mu.Lock()
		if h = m.hists[hist]; h == nil {
			h = newHist()
			m.hists[hist] = h
		}
		m.mu.Unlock()
	}
	h.Observe(ms)
}

// eventCounterName maps every known event kind to its counter name, so
// the per-event hot path skips the "events."+kind concatenation (one
// heap allocation per emitted event at crawl scale).
var eventCounterName = func() map[string]string {
	names := make(map[string]string)
	for _, k := range []string{
		KindPageStart, KindDNSQuery, KindDNSCacheHit, KindDNSFail,
		KindTLSHandshake, KindTLSResume, KindCertMemoHit, KindConnectFail,
		KindStreamOpen, KindOriginFrame, KindCoalesceHit, KindMisdirected,
		KindRetry, KindGoAway, KindReset, KindPageEnd,
	} {
		names[k] = "events." + k
	}
	return names
}()

// Event implements Recorder by counting events per kind under
// "events.<kind>".
func (m *Metrics) Event(ev Event) {
	name, ok := eventCounterName[ev.Kind]
	if !ok {
		name = "events." + ev.Kind
	}
	m.Count(name, 1)
}

// Get returns the current value of a counter (0 if never written).
func (m *Metrics) Get(name string) int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if c := m.counters[name]; c != nil {
		return c.Load()
	}
	return 0
}

// HistSummary returns the summary of a histogram (zero if absent).
func (m *Metrics) HistSummary(name string) measure.Summary {
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h == nil {
		return measure.Summary{}
	}
	return h.Summary()
}

// Counters returns a sorted snapshot of all counters.
func (m *Metrics) Counters() map[string]int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]int64, len(m.counters))
	for k, c := range m.counters {
		out[k] = c.Load()
	}
	return out
}

// String renders every counter and histogram as an aligned text block,
// counters first, both sorted by name.
func (m *Metrics) String() string {
	snap := m.Counters()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-40s %12d\n", k, snap[k])
	}
	m.mu.RLock()
	hnames := make([]string, 0, len(m.hists))
	for k := range m.hists {
		hnames = append(hnames, k)
	}
	m.mu.RUnlock()
	sort.Strings(hnames)
	for _, k := range hnames {
		s := m.HistSummary(k)
		fmt.Fprintf(&b, "%-40s n=%-8d mean=%-8.1f p50=%-8.1f p90=%-8.1f p99=%-8.1f p99.9=%-8.1f max=%.1f\n",
			k, s.N, s.Mean, s.Median, s.P90, s.P99, s.P999, s.Max)
	}
	return b.String()
}

var expvarOnce sync.Map // prefix -> struct{}, expvar.Publish panics on duplicates

// PublishExpvar exposes the metrics under /debug/vars as one expvar map
// named prefix. Publishing the same prefix twice is a no-op (expvar
// itself panics on duplicate names), so restarts within one process are
// safe.
func (m *Metrics) PublishExpvar(prefix string) {
	if _, loaded := expvarOnce.LoadOrStore(prefix, struct{}{}); loaded {
		return
	}
	expvar.Publish(prefix, expvar.Func(func() any {
		out := map[string]any{}
		for k, v := range m.Counters() {
			out[k] = v
		}
		m.mu.RLock()
		hnames := make([]string, 0, len(m.hists))
		for k := range m.hists {
			hnames = append(hnames, k)
		}
		m.mu.RUnlock()
		for _, k := range hnames {
			s := m.HistSummary(k)
			out[k] = map[string]any{
				"n": s.N, "mean": s.Mean, "p50": s.Median,
				"p90": s.P90, "p99": s.P99, "p999": s.P999, "max": s.Max,
			}
		}
		return out
	}))
}
