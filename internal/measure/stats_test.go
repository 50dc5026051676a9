package measure

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(xs)
	if s.N != 10 {
		t.Errorf("summary = %+v", s)
	}
	if s.Median != 5.5 {
		t.Errorf("median = %v", s.Median)
	}
	if s.P25 != 3.25 || s.P75 != 7.75 {
		t.Errorf("quartiles = %v, %v", s.P25, s.P75)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestQuantileEdges(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 3 {
		t.Error("extreme quantiles wrong")
	}
	if Quantile(xs, 0.5) != 2 {
		t.Error("median wrong")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 1)
		pb := math.Mod(math.Abs(b), 1)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Quantile(xs, pa) <= Quantile(xs, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The median of an even count of integer samples interpolates between
// the middle two.
func TestMedianInts(t *testing.T) {
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("median of 1..4 wrong")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{1, 1, 2, 3, 3, 3})
	want := []CDFPoint{{1, 2.0 / 6}, {2, 3.0 / 6}, {3, 1.0}}
	if len(pts) != len(want) {
		t.Fatalf("pts = %v", pts)
	}
	for i := range pts {
		if pts[i] != want[i] {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if CDFAt(pts, 0.5) != 0 || CDFAt(pts, 1) != 2.0/6 || CDFAt(pts, 2.5) != 0.5 || CDFAt(pts, 99) != 1 {
		t.Error("CDFAt wrong")
	}
}

func TestCDFIsMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		pts := CDF(xs)
		if len(xs) == 0 {
			return pts == nil
		}
		if pts[len(pts)-1].P != 1 {
			return false
		}
		return sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) &&
			sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].P < pts[j].P })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// cdfAtLinear is the pre-optimization reference implementation.
func cdfAtLinear(pts []CDFPoint, x float64) float64 {
	p := 0.0
	for _, pt := range pts {
		if pt.X > x {
			break
		}
		p = pt.P
	}
	return p
}

// TestCDFAtProperties pins the sort.Search rewrite of CDFAt against the
// CDF invariants: the CDF evaluates to exactly 1 at (and beyond) the
// sample maximum, to 0 below the minimum, and is monotone in x.
func TestCDFAtProperties(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pts := CDF(xs)
		max := xs[0]
		min := xs[0]
		for _, v := range xs {
			if v > max {
				max = v
			}
			if v < min {
				min = v
			}
		}
		if CDFAt(pts, max) != 1.0 {
			return false
		}
		if min > math.Inf(-1) && CDFAt(pts, math.Nextafter(min, math.Inf(-1))) != 0 {
			return false
		}
		// Monotone: CDFAt(x1) ≤ CDFAt(x2) for x1 ≤ x2.
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return CDFAt(pts, a) <= CDFAt(pts, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCDFAtMatchesLinearScan checks the binary search against the old
// linear scan on arbitrary inputs, including between-point and
// out-of-range evaluation.
func TestCDFAtMatchesLinearScan(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		pts := CDF(xs)
		for _, x := range probes {
			if math.IsNaN(x) {
				continue
			}
			if CDFAt(pts, x) != cdfAtLinear(pts, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]int{1, 1, 2, 5})
	if h[1] != 2 || h[2] != 1 || h[5] != 1 || len(h) != 3 {
		t.Errorf("h = %v", h)
	}
}

func TestReductionPct(t *testing.T) {
	if ReductionPct(16, 5) < 68 || ReductionPct(16, 5) > 69 {
		t.Errorf("reduction = %v", ReductionPct(16, 5))
	}
	if ReductionPct(0, 5) != 0 {
		t.Error("zero base not handled")
	}
}

func TestCounterRanking(t *testing.T) {
	c := NewCounter()
	c.Add("google", 50)
	c.Add("cloudflare", 30)
	c.Add("amazon", 20)
	top := c.Top(2)
	if len(top) != 2 || top[0].Key != "google" || top[1].Key != "cloudflare" {
		t.Errorf("top = %v", top)
	}
	if top[0].Share != 50 {
		t.Errorf("share = %v", top[0].Share)
	}
	if c.Total() != 100 || c.count("amazon") != 20 {
		t.Error("totals wrong")
	}
	if s := c.TableString("title", 3); s == "" {
		t.Error("empty table")
	}
}

func TestCounterTieBreak(t *testing.T) {
	c := NewCounter()
	c.Add("b", 5)
	c.Add("a", 5)
	top := c.Top(0)
	if top[0].Key != "a" || top[1].Key != "b" {
		t.Errorf("tie break = %v", top)
	}
}

// TestTableStringEmptyCounter pins the empty-counter rendering: just
// the title, no phantom 0.00% cumulative row.
func TestTableStringEmptyCounter(t *testing.T) {
	c := NewCounter()
	got := c.TableString("Table X: nothing", 5)
	if got != "Table X: nothing\n" {
		t.Errorf("empty counter table = %q", got)
	}
	if strings.Contains(got, "cumulative") {
		t.Error("empty counter printed a cumulative row")
	}
}

// TestTableStringCumulativeClamp forces per-row shares whose displayed
// sum exceeds 100% and checks the cumulative row is clamped.
func TestTableStringCumulativeClamp(t *testing.T) {
	c := NewCounter()
	// 3 × 1/3: each share is 33.333…%, summing to 100.000…01% in
	// float arithmetic on some n; use many keys to force drift upward.
	for i := 0; i < 7; i++ {
		c.Add(string(rune('a'+i)), 1)
	}
	s := c.TableString("clamp", 0)
	var cum float64
	if _, err := fmt.Sscanf(s[strings.LastIndex(s, "  ")-8:], "%f%% (cumulative)", &cum); err == nil {
		if cum > 100 {
			t.Errorf("cumulative share %v exceeds 100%%", cum)
		}
	}
	// Direct check: the rendered cumulative never exceeds "100.00%".
	if strings.Contains(s, "100.01") || strings.Contains(s, "100.1") {
		t.Errorf("cumulative row over 100%%:\n%s", s)
	}
	// And a non-empty counter still has its cumulative row.
	if !strings.Contains(s, "cumulative") {
		t.Error("cumulative row missing for non-empty counter")
	}
}

func TestSeriesMean(t *testing.T) {
	s := Series{Values: []float64{1, 2, 3, 4}}
	if s.Mean(1, 3) != 2.5 {
		t.Errorf("mean = %v", s.Mean(1, 3))
	}
	if s.Mean(-5, 99) != 2.5 {
		t.Errorf("clamped mean = %v", s.Mean(-5, 99))
	}
	if s.Mean(3, 3) != 0 {
		t.Error("empty window not zero")
	}
}

func TestFormatCDF(t *testing.T) {
	if FormatCDF("dns", []float64{1, 2, 3}) == "" {
		t.Error("empty format")
	}
}

func TestCounterMerge(t *testing.T) {
	a := NewCounter()
	a.Add("x", 3)
	a.Add("y", 1)
	b := NewCounter()
	b.Add("x", 2)
	b.Add("z", 5)
	a.Merge(b)
	if a.count("x") != 5 || a.count("y") != 1 || a.count("z") != 5 {
		t.Errorf("merged counts: x=%d y=%d z=%d", a.count("x"), a.count("y"), a.count("z"))
	}
	if a.Total() != 11 {
		t.Errorf("total = %d", a.Total())
	}
	// Self/nil merges are no-ops.
	a.Merge(a)
	a.Merge(nil)
	if a.Total() != 11 {
		t.Errorf("total after self/nil merge = %d", a.Total())
	}
	// Source counter untouched.
	if b.Total() != 7 {
		t.Errorf("source total = %d", b.Total())
	}
}

// count returns the count for one key.
func (c *Counter) count(key string) int64 {
	if i, ok := c.index[key]; ok {
		return c.counts[i]
	}
	return 0
}
