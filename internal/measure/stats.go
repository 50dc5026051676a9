// Package measure provides the statistics toolkit used by the modeling
// and deployment harnesses: order statistics (median, arbitrary
// percentiles, interquartile range), empirical CDFs, frequency
// histograms, and longitudinal time series with control/experiment
// labeling — the quantities every table and figure in the paper reports.
package measure

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the order statistics of a sample.
type Summary struct {
	N      int
	Median float64
	P25    float64
	P75    float64
	P90    float64
	P99    float64
	P999   float64 // the SLO-reporting tail quantile (p99.9)
}

// Summarize computes a Summary. It returns a zero Summary for an empty
// sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { return quantileSorted(s, p) }
	return Summary{
		N:      len(s),
		Median: q(0.50),
		P25:    q(0.25),
		P75:    q(0.75),
		P90:    q(0.90),
		P99:    q(0.99),
		P999:   q(0.999),
	}
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the numpy default).
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

func quantileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of samples ≤ X
}

// CDF computes the empirical CDF of xs with one point per distinct value.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var pts []CDFPoint
	n := float64(len(s))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		pts = append(pts, CDFPoint{X: s[i], P: float64(j) / n})
		i = j
	}
	return pts
}

// CDFAt evaluates an empirical CDF at x in O(log n): the points are
// sorted by X (the CDF invariant), so the answer is the P of the last
// point with X ≤ x, found by binary search. Report passes evaluate
// CDFs once per rank over the whole corpus, so the former linear scan
// made those passes O(n²) in the number of distinct values.
func CDFAt(pts []CDFPoint, x float64) float64 {
	i := sort.Search(len(pts), func(i int) bool { return pts[i].X > x })
	if i == 0 {
		return 0
	}
	return pts[i-1].P
}

// Histogram counts samples per integer value.
func Histogram(xs []int) map[int]int {
	h := make(map[int]int)
	for _, v := range xs {
		h[v]++
	}
	return h
}

// FormatCDF renders selected percentiles of a CDF for report output.
func FormatCDF(name string, xs []float64) string {
	s := Summarize(xs)
	return fmt.Sprintf("%-34s n=%-7d p25=%-8.1f p50=%-8.1f p75=%-8.1f p90=%-8.1f p99=%.1f",
		name, s.N, s.P25, s.Median, s.P75, s.P90, s.P99)
}

// ReductionPct returns the percentage reduction from base to new
// (positive = improvement).
func ReductionPct(base, now float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - now) / base
}

// Counter tallies string-keyed occurrences and reports ranked shares,
// the shape of Tables 2, 4, 5, 6, 7 and 9.
type Counter struct {
	index  map[string]int // key → its position in keys and counts
	keys   []string
	counts []int64
	total  int64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{index: make(map[string]int)} }

// Add increments key by n. A key new to the counter is stored as its
// own copy (strings.Clone): a counter outlives the pages it counts, and
// a key cut from a page's text would keep that whole text alive. A
// known key only reads the map, because assigning to a string key
// rewrites the key the map holds with the one assigned.
func (c *Counter) Add(key string, n int64) {
	if i, ok := c.index[key]; ok {
		c.counts[i] += n
	} else {
		c.insert(strings.Clone(key), n)
	}
	c.total += n
}

func (c *Counter) insert(key string, n int64) {
	c.index[key] = len(c.keys)
	c.keys = append(c.keys, key)
	c.counts = append(c.counts, n)
}

// Merge adds every count of other into c. Merging is associative and
// commutative, so shard counters recombine deterministically in any
// order — the property the parallel report passes rely on.
func (c *Counter) Merge(other *Counter) {
	if other == nil || other == c {
		return
	}
	for i, k := range other.keys {
		if j, ok := c.index[k]; ok {
			c.counts[j] += other.counts[i]
		} else {
			c.insert(k, other.counts[i])
		}
	}
	c.total += other.total
}

// Total returns the sum of all counts.
func (c *Counter) Total() int64 { return c.total }

// RankedEntry is one row of a ranked share table.
type RankedEntry struct {
	Key   string
	Count int64
	Share float64 // percent of total
}

// Top returns the n highest-count entries with their share of the total.
// Ties break lexicographically for determinism.
func (c *Counter) Top(n int) []RankedEntry {
	entries := make([]RankedEntry, 0, len(c.keys))
	for i, k := range c.keys {
		v := c.counts[i]
		share := 0.0
		if c.total > 0 {
			share = 100 * float64(v) / float64(c.total)
		}
		entries = append(entries, RankedEntry{Key: k, Count: v, Share: share})
	}
	return Rank(entries, n)
}

// Rank orders entries as Top does — by count, highest first, ties by
// key — and keeps the first n (all when n ≤ 0).
func Rank(entries []RankedEntry, n int) []RankedEntry {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	return entries
}

// TableString renders the top-n entries as RankedTable does.
func (c *Counter) TableString(title string, n int) string {
	return RankedTable(title, c.Top(n))
}

// RankedTable renders ranked rows as an aligned text table. No rows
// render as the bare title (no bogus 0.00% cumulative row), and the
// cumulative share is clamped to 100% so float rounding across many
// rows can never report more than the whole.
func RankedTable(title string, rows []RankedEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(rows) == 0 {
		return b.String()
	}
	cum := 0.0
	for i, e := range rows {
		cum += e.Share
		fmt.Fprintf(&b, "%3d  %-42s %12d  %6.2f%%\n", i+1, e.Key, e.Count, e.Share)
	}
	if cum > 100 {
		cum = 100
	}
	fmt.Fprintf(&b, "     %-42s %12s  %6.2f%% (cumulative)\n", "", "", cum)
	return b.String()
}

// Series is a longitudinal series of per-bucket values, e.g.
// daily new-TLS-connection counts for control vs experiment (Figure 8).
type Series struct {
	Values []float64
}

// Mean returns the mean of the series values within [lo, hi) bucket
// indexes, clamped to the series bounds.
func (s Series) Mean(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	if hi <= lo {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}
