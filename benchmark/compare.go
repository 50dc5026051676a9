package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func readResults(path string) (map[string][]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := make(map[string][]*result)
	for _, r := range rs {
		if !r.Traced {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by, nil
}

// side summarizes one commit's runs of one metric on one workload.
type side struct {
	median, lo, hi float64 // lo/hi: the extreme runs
	iqr            float64 // distance between the quartiles; 0 with fewer than four runs
}

func summarize(rs []*result, metricName string) side {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		xs = append(xs, r.Metrics[metricName].Value)
	}
	sort.Float64s(xs)
	s := side{median: quantile(xs, 0.5), lo: xs[0], hi: xs[len(xs)-1]}
	if len(xs) >= 4 {
		s.iqr = quantile(xs, 0.75) - quantile(xs, 0.25)
	}
	return s
}

// worsening is how much worse b is than a, as a share of a (negative
// when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict applies the benchmark's rule to one metric on one workload:
// beyond the bound is better or worse, within it is same, and a metric
// whose own run-to-run spread exceeds the bound is unresolved unless
// every run of one side beats every run of the other.
func verdict(d metricDef, old, new side) string {
	w := worsening(d, old.median, new.median)
	if math.Abs(w) <= d.Bound {
		return "same"
	}
	noisy := old.iqr > d.Bound*old.median || new.iqr > d.Bound*new.median
	if noisy {
		separated := new.lo > old.hi || new.hi < old.lo
		if !separated {
			return "unresolved"
		}
	}
	if w > 0 {
		return "worse"
	}
	return "better"
}

// compareFiles prints one row per workload and end-to-end metric and
// returns an error (exit status 1) on any worse row or rise in failures.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	olds, err := readResults(oldPath)
	if err != nil {
		return err
	}
	news, err := readResults(newPath)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %22s %7s  %s\n", "workload", "metric", "old", "new", "new/old (base old)", "bound", "verdict")
	for _, name := range workloadNames {
		o, n := olds[name], news[name]
		if len(o) == 0 || len(n) == 0 {
			missing := newPath
			if len(o) == 0 {
				missing = oldPath
			}
			fmt.Fprintf(w, "%-15s missing from %s\n", name, missing)
			bad++
			continue
		}
		for _, d := range endToEnd {
			so, sn := summarize(o, d.Name), summarize(n, d.Name)
			v := verdict(d, so, sn)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-15s %-16s %14.6g %14.6g %11.4f of %-8.4g %6.0f%%  %s\n",
				name, d.Name, so.median, sn.median, sn.median/so.median, so.median, 100*d.Bound, v)
		}
		if of, nf := failRatio(o), failRatio(n); nf > of {
			fmt.Fprintf(w, "%-15s fail ratio rose from %g to %g\n", name, of, nf)
			bad++
		}
		if o[0].SimDigest != n[0].SimDigest {
			fmt.Fprintf(w, "%-15s simulated output changed (sim_digest %s -> %s)\n", name, o[0].SimDigest, n[0].SimDigest)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

func failRatio(rs []*result) float64 {
	var failed, attempted int64
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// selfCheckRuns is how many runs of every workload make one set. The
// two sets alternate, so a slow minute on a shared box lands on both.
const selfCheckRuns = 3

// selfCheck is the A/A test: two sets of runs of the same build must
// agree, median against median, within every end-to-end metric's bound,
// or that metric cannot gate anything and belongs with the per-layer
// ones.
func selfCheck(seed int64, seconds float64) error {
	var sets [2]map[string][]*result
	for i := 0; i < 2*selfCheckRuns; i++ {
		rs, err := runAll(seed, seconds, 0)
		if err != nil {
			return err
		}
		if sets[i%2] == nil {
			sets[i%2] = make(map[string][]*result)
		}
		for _, r := range rs {
			sets[i%2][r.Workload] = append(sets[i%2][r.Workload], r)
		}
	}
	bad := 0
	fmt.Printf("\nA/A self-check: two alternating sets of %d runs of the same build, medians\n", selfCheckRuns)
	fmt.Printf("%-15s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "spread", "bound")
	for _, name := range workloadNames {
		a, b := sets[0][name], sets[1][name]
		for _, d := range endToEnd {
			x, y := summarize(a, d.Name).median, summarize(b, d.Name).median
			spread := math.Abs(x-y) / math.Min(x, y)
			mark := ""
			if spread > d.Bound {
				mark = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-15s %-16s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", name, d.Name, x, y, 100*spread, 100*d.Bound, mark)
		}
		for _, r := range append(a[1:], b...) {
			if r.SimDigest != a[0].SimDigest {
				fmt.Printf("%-15s sim_digest differs between runs: %s vs %s\n", name, a[0].SimDigest, r.SimDigest)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d metrics disagree with themselves by more than their bound", bad)
	}
	fmt.Println("self-check passed")
	return nil
}
