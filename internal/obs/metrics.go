package obs

import (
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is the counter recorder. The zero value is not usable; call
// NewMetrics. Trace events are counted by kind but not retained — pair
// with a *Trace via Multi when a trace is wanted.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*atomic.Int64
}

// NewMetrics returns an empty metrics recorder.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]*atomic.Int64)}
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

// snapshot returns a sorted snapshot of all counters.
func (m *Metrics) snapshot() map[string]int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]int64, len(m.counters))
	for k, c := range m.counters {
		out[k] = c.Load()
	}
	return out
}

// String renders every counter as an aligned text block, sorted by
// name.
func (m *Metrics) String() string {
	snap := m.snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-40s %12d\n", k, snap[k])
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
	expvar.Publish(prefix, expvar.Func(func() any { return m.snapshot() }))
}
