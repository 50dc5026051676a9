package obs

import (
	"bytes"
	"expvar"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderHelpers(t *testing.T) {
	// The no-op fast path must tolerate a nil Recorder everywhere.
	Count(nil, "x", 1)
	Emit(nil, Event{Kind: KindDNSQuery})
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	m.Count("a", 2)
	m.Count("a", 3)
	m.Count("b", 1)
	if m.get("a") != 5 || m.get("b") != 1 || m.get("absent") != 0 {
		t.Errorf("counters: a=%d b=%d absent=%d", m.get("a"), m.get("b"), m.get("absent"))
	}
	snap := m.snapshot()
	if snap["a"] != 5 || len(snap) != 2 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestMetricsEventCountsByKind(t *testing.T) {
	m := NewMetrics()
	m.Event(Event{Kind: KindCoalesceHit})
	m.Event(Event{Kind: KindCoalesceHit})
	m.Event(Event{Kind: KindMisdirected})
	if m.get("events."+KindCoalesceHit) != 2 || m.get("events."+KindMisdirected) != 1 {
		t.Errorf("event counters wrong: %v", m.snapshot())
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Count("c", 1)
				m.Event(Event{Kind: KindDNSQuery})
			}
		}()
	}
	wg.Wait()
	if m.get("c") != 8000 {
		t.Errorf("c = %d, want 8000", m.get("c"))
	}
	if m.get("events."+KindDNSQuery) != 8000 {
		t.Errorf("event counter = %d", m.get("events."+KindDNSQuery))
	}
}

func TestMetricsString(t *testing.T) {
	m := NewMetrics()
	m.Count("z.last", 1)
	m.Count("a.first", 2)
	s := m.String()
	if !strings.Contains(s, "a.first") || !strings.Contains(s, "z.last") {
		t.Errorf("render missing names:\n%s", s)
	}
	if strings.Index(s, "a.first") > strings.Index(s, "z.last") {
		t.Error("counters not sorted")
	}
}

func TestTraceDeterministicOrder(t *testing.T) {
	// Append events from concurrent goroutines in arbitrary order; the
	// serialized stream must sort by (rank, seq).
	tr := NewTrace()
	var wg sync.WaitGroup
	for rank := 5; rank >= 1; rank-- {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for seq := 3; seq >= 0; seq-- {
				tr.Event(Event{Rank: rank, Seq: seq, Kind: KindDNSQuery, Host: "h"})
			}
		}(rank)
	}
	wg.Wait()
	evs := tr.events()
	if len(evs) != 20 {
		t.Fatalf("len = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Seq >= b.Seq) {
			t.Fatalf("events out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestTraceNDJSONRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.Event(Event{Rank: 2, Seq: 0, Kind: KindPageStart, Host: "b.example"})
	tr.Event(Event{Rank: 1, Seq: 1, Kind: KindTLSHandshake, Host: "a.example", MS: 182.5})
	tr.Event(Event{Rank: 1, Seq: 0, Kind: KindPageStart, Host: "a.example"})
	tr.Event(Event{Rank: 1, Seq: 2, Kind: KindPageEnd, Host: "a.example", DNS: 3, TLS: 2, IdealIP: 2, IdealOrigin: 1})

	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.events()
	if len(got) != len(want) {
		t.Fatalf("round trip lost events: %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
	if got[0].Kind != KindPageStart || got[0].Rank != 1 {
		t.Errorf("first event = %+v", got[0])
	}
	if got[2].DNS != 3 || got[2].IdealOrigin != 1 {
		t.Errorf("page_end summary lost: %+v", got[2])
	}
}

func TestTraceWriteIsStable(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 50; i++ {
		tr.Event(Event{Rank: 50 - i, Seq: i % 3, Kind: KindDNSQuery})
	}
	var a, b bytes.Buffer
	if err := tr.WriteNDJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two serializations of the same trace differ")
	}
}

func TestReadNDJSONBadLine(t *testing.T) {
	if _, err := ReadNDJSON(strings.NewReader("{\"rank\":1}\nnot json\n")); err == nil {
		t.Error("malformed line not rejected")
	}
}

func TestMultiFanOut(t *testing.T) {
	m := NewMetrics()
	tr := NewTrace()
	r := Multi(nil, m, nil, tr)
	r.Count("x", 4)
	r.Event(Event{Rank: 1, Kind: KindGoAway})
	if m.get("x") != 4 || m.get("events."+KindGoAway) != 1 {
		t.Error("metrics member missed calls")
	}
	if tr.Len() != 1 {
		t.Error("trace member missed event")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils must be nil")
	}
	if Multi(m) != Recorder(m) {
		t.Error("Multi of one must unwrap")
	}
}

func TestPublishExpvar(t *testing.T) {
	m := NewMetrics()
	m.Count("reqs", 7)
	m.PublishExpvar("obs_test_metrics")
	m.PublishExpvar("obs_test_metrics") // second publish must not panic
	v := expvar.Get("obs_test_metrics")
	if v == nil {
		t.Fatal("expvar not published")
	}
	if !strings.Contains(v.String(), "\"reqs\":7") {
		t.Errorf("expvar payload = %s", v.String())
	}
}

// get returns the current value of a counter (0 if never written).
func (m *Metrics) get(name string) int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if c := m.counters[name]; c != nil {
		return c.Load()
	}
	return 0
}
