package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json to the metric
// and workload tables the program reports from.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed alphabet", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for m, s := range spanMetrics {
		if !seen[m] {
			t.Errorf("spanMetrics names %q (span %q), which is not a per-layer metric", m, s)
		}
	}
}

func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s traced=%v: %d metrics emitted, want %d", res.Workload, res.Traced, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s traced=%v: metric %s not emitted", res.Workload, res.Traced, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestWorkloadsToySizes runs every workload, untraced and traced, at
// sizes small enough for tier-1: every metric in the catalogue comes out
// exactly once, nothing fails an invariant, and the span file is a
// well-formed tree with non-negative self times.
func TestWorkloadsToySizes(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(name, 1, 0.01, false, toySizes, "")
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if res.Workers < 1 || res.Gomaxprocs < res.Workers {
				t.Errorf("workers=%d gomaxprocs=%d", res.Workers, res.Gomaxprocs)
			}

			spanFile := filepath.Join(t.TempDir(), "spans.ndjson")
			traced, err := runWorkload(name, 1, 0.01, true, toySizes, spanFile)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, traced, perLayer)
			if traced.SimDigest != res.SimDigest {
				t.Errorf("traced run's sim_digest %s differs from the untraced run's %s", traced.SimDigest, res.SimDigest)
			}
			checkSpanFile(t, spanFile)
		})
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r spanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("span line %d: %v", len(spans), err)
		}
		if int(r.ID) != len(spans) {
			t.Fatalf("span %d has id %d", len(spans), r.ID)
		}
		names[r.Name] = true
		spans = append(spans, span{id: r.ID, parent: r.Parent, start: r.StartNs, end: r.EndNs, iter: r.Iteration})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || !names["iteration"] {
		t.Fatalf("%d spans, no iteration root", len(spans))
	}
	for _, s := range spans {
		if s.parent != noSpan {
			if s.parent < 0 || int(s.parent) >= len(spans) || s.parent >= s.id {
				t.Errorf("span %d: parent %d does not resolve to an earlier span", s.id, s.parent)
				continue
			}
			if p := spans[s.parent]; p.iter != s.iter {
				t.Errorf("span %d (iteration %d) has a parent in iteration %d", s.id, s.iter, p.iter)
			}
		}
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", s.id)
		}
	}
	for i, ns := range selfTimes(spans) {
		if ns < 0 {
			t.Errorf("span %d has negative self time %d ns", i, ns)
		}
	}
}

func TestSelfTimeIsDurationMinusChildUnion(t *testing.T) {
	spans := []span{
		{id: 0, parent: noSpan, start: 0, end: 100},
		{id: 1, parent: 0, start: 10, end: 40},
		{id: 2, parent: 0, start: 30, end: 60}, // overlaps span 1: ran on another goroutine
		{id: 3, parent: 1, start: 10, end: 20},
	}
	if got, want := selfTimes(spans), []int64{50, 20, 30, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "cpu_ms_per_kop", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) side { return side{median: v, lo: v, hi: v} }
	for _, c := range []struct {
		d        metricDef
		old, new side
		want     string
	}{
		{lower, steady(100), steady(105), "same"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		// Spread wider than the bound and overlapping runs: no verdict.
		{lower, side{median: 100, lo: 80, hi: 130, iqr: 20}, side{median: 120, lo: 100, hi: 140, iqr: 5}, "unresolved"},
		// Same spread, but every new run is worse than every old run.
		{lower, side{median: 100, lo: 80, hi: 130, iqr: 20}, side{median: 150, lo: 140, hi: 160, iqr: 5}, "worse"},
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.Name, c.old, c.new, got, c.want)
		}
	}
}
