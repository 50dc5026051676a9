package obs

import (
	"io"
	"testing"
)

// benchEvent is representative of the hot emission sites: a stream-open
// event with host and count, as emitted once per request by the h2
// client.
func benchEvent(i int) Event {
	return Event{Rank: i & 1023, Seq: i, Kind: KindStreamOpen, Host: "www.site-123456.example", N: 3}
}

// BenchmarkEmitRecorderOff measures the uninstrumented path: every
// protocol layer calls the nil-tolerant helpers unconditionally, so
// this must stay at 0 allocs/op for recorder-off runs to be free.
func BenchmarkEmitRecorderOff(b *testing.B) {
	var r Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(r, "h2.client.streams", 1)
		Emit(r, benchEvent(i))
	}
}

// TestRecorderOffEmitNoAllocs is the hard gate behind the benchmark: a
// nil recorder makes every helper a no-op that allocates nothing, the
// event literal at the call site included.
func TestRecorderOffEmitNoAllocs(t *testing.T) {
	var r Recorder
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		Count(r, "h2.client.streams", 1)
		Emit(r, benchEvent(i))
		i++
	})
	if allocs != 0 {
		t.Errorf("recorder-off emit allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkTraceEvent measures the recorder-on trace append path that a
// 10^5-page crawl exercises ~20 times per page.
func BenchmarkTraceEvent(b *testing.B) {
	t := NewTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Event(benchEvent(i))
	}
}

// BenchmarkMetricsEvent measures the per-kind event counting path.
func BenchmarkMetricsEvent(b *testing.B) {
	m := NewMetrics()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Event(benchEvent(i))
	}
}

// TestMetricsEventNoAllocsSteadyState: once a kind's counter exists,
// counting one more event of that kind allocates nothing — no
// "events."+kind concatenation, no map growth — for every known kind.
func TestMetricsEventNoAllocsSteadyState(t *testing.T) {
	m := NewMetrics()
	for kind := range eventCounterName {
		ev := Event{Rank: 1, Kind: kind, Host: "www.site-123456.example", N: 3}
		m.Event(ev) // warm up: the counter is created here
		if allocs := testing.AllocsPerRun(100, func() { m.Event(ev) }); allocs != 0 {
			t.Errorf("Metrics.Event(%s) allocates %.1f per op in steady state, want 0", kind, allocs)
		}
	}
}

// BenchmarkMetricsCount measures the steady-state counter path (name
// already interned).
func BenchmarkMetricsCount(b *testing.B) {
	m := NewMetrics()
	m.Count("h2.client.streams", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Count("h2.client.streams", 1)
	}
}

// BenchmarkTraceWriteNDJSON measures trace serialization throughput.
func BenchmarkTraceWriteNDJSON(b *testing.B) {
	t := NewTrace()
	for i := 0; i < 10000; i++ {
		t.Event(benchEvent(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := t.WriteNDJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
