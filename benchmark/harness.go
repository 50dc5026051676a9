package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// heapBallast is a block of pointer-free heap held for the whole run.
// The collector starts a cycle when the heap has doubled, and an
// iteration starts right after a forced collection, from a live heap of
// a few megabytes: without ballast h2-live ran ~540 cycles per
// iteration, its throughput doubled when the live heap grew by 8 MB
// (which is how a leak in this harness was found), and run-to-run
// spread was 10–25 %. With the collector paced as in a process that
// holds a modest working set, the same workloads repeat within 2–6 %,
// and a change that merely shifts a few megabytes of live heap no
// longer reads as a speed-up. The bytes are never touched, so they cost
// address space, not memory.
const heapBallast = 64 << 20

const (
	setupRepeats = 3 // set-up is timed this many times; setup_s is the median
	warmupIters  = 1 // untimed iteration before measuring (set-up already ran the path three times)
	minIters     = 3 // measured iterations, however short the run
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload produced. Metrics holds
// the end-to-end metrics (tracing off) or the per-layer ones (tracing
// on); the rest is context a comparison needs.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	OpUnit     string            `json:"op_unit"`
	Ops        int               `json:"ops"` // per iteration
	Iterations int               `json:"iterations"`
	Gomaxprocs int               `json:"gomaxprocs"`
	Workers    int               `json:"workers"`
	SimDigest  string            `json:"sim_digest"`
	Samples    map[string]int    `json:"samples,omitempty"` // sample counts behind percentile metrics
	Coverage   float64           `json:"span_coverage,omitempty"`
	IterWallMs []float64         `json:"iter_wall_ms,omitempty"` // every measured iteration of an untraced run:
	IterCPUMs  []float64         `json:"iter_cpu_ms,omitempty"`  // shows whether a slow stretch of the box hit it
	Metrics    map[string]metric `json:"metrics"`
}

// pinProcs fixes GOMAXPROCS and the worker count every workload uses to
// min(nproc, 2), so numbers from different boxes with at least two
// cores are comparable and no run claims parallelism it did not have
// (workers never exceed procs, whatever GOMAXPROCS the environment set).
func pinProcs() (workers int) {
	workers = min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(workers)
	return workers
}

func digest(artifacts [][]byte) uint64 {
	h := fnv.New64a()
	for _, a := range artifacts {
		h.Write(a)
	}
	return h.Sum64()
}

// iterStat is one measured iteration.
type iterStat struct {
	wallNs   int64
	cpuNs    int64
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  uint64
	out      iterOut
}

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runner holds one prepared workload and the digest it is held to.
type runner struct {
	name      string
	w         workload
	workers   int
	ref       uint64
	attempted int64
	failed    int64
}

// measure runs iterations back to back for budget (at least minIters),
// each preceded by a collection so every iteration starts from the same
// heap state. It fails when an iteration's digest leaves the reference.
func (r *runner) measure(tr *tracer, workers int, budget time.Duration, minimum int) ([]iterStat, error) {
	var stats []iterStat
	start := time.Now()
	for i := 0; i < minimum || time.Since(start) < budget; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr.setIteration(i)
		c0, t0 := cpuTime(), time.Now()
		root := tr.begin(noSpan, "iteration")
		out, err := r.w.iterate(tr, root, workers)
		tr.end(root)
		wall := time.Since(t0)
		c1 := cpuTime()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		if err := r.check(out, fmt.Sprintf("iteration %d (workers=%d)", i, workers)); err != nil {
			return nil, err
		}
		// Keeping the artifacts would grow the live heap by an iteration's
		// output each time round, and with it the collector's pacing.
		out.artifacts = nil
		stats = append(stats, iterStat{
			wallNs: int64(wall), cpuNs: c1 - c0,
			mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
			gcCycles: m1.NumGC - m0.NumGC, gcPause: m1.PauseTotalNs - m0.PauseTotalNs,
			out: out,
		})
	}
	return stats, nil
}

func (r *runner) check(out iterOut, what string) error {
	r.attempted += int64(out.ops)
	r.failed += int64(out.failed)
	if out.ops <= 0 {
		return fmt.Errorf("%s: %s completed no operations", r.name, what)
	}
	if d := digest(out.artifacts); d != r.ref {
		return fmt.Errorf("%s: %s: sim_digest %016x differs from the one-worker reference %016x", r.name, what, d, r.ref)
	}
	return nil
}

// setUp prepares the workload setupRepeats times from scratch, timing
// each, and keeps the last instance.
func setUp(name string, seed int64, sz sizes, workers int) (*runner, []float64, error) {
	r := &runner{name: name, workers: workers}
	var secs []float64
	for k := 0; k < setupRepeats; k++ {
		r.w = nil // release the previous instance's inputs before building the next
		runtime.GC()
		t0 := time.Now()
		w, err := newWorkload(name)
		if err != nil {
			return nil, nil, err
		}
		if err := w.prepare(seed, sz, workers); err != nil {
			return nil, nil, err
		}
		ref, err := w.reference()
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		d := digest(ref.artifacts)
		if k > 0 && d != r.ref {
			return nil, nil, fmt.Errorf("%s: set-up %d produced sim_digest %016x, set-up 0 produced %016x", name, k, d, r.ref)
		}
		r.w, r.ref = w, d
		r.attempted += int64(ref.ops)
		r.failed += int64(ref.failed)
	}
	return r, secs, nil
}

// runWorkload is one benchmark run: set-up, warm-up, then measured
// iterations for about `seconds`. With traced set, the time is split
// between an untraced baseline, the traced iterations and a one-proc
// pass, and the layer probes run afterwards.
func runWorkload(name string, seed int64, seconds float64, traced bool, sz sizes, traceOut string) (*result, error) {
	workers := pinProcs()
	ballast := make([]byte, heapBallast)
	defer runtime.KeepAlive(ballast)
	r, setupSecs, err := setUp(name, seed, sz, workers)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmupIters; i++ {
		out, err := r.w.iterate(nil, noSpan, workers)
		if err != nil {
			return nil, err
		}
		if err := r.check(out, fmt.Sprintf("warm-up %d", i)); err != nil {
			return nil, err
		}
	}

	res := &result{
		Workload: name, Seed: seed, Traced: traced, OpUnit: r.w.opUnit(),
		Gomaxprocs: runtime.GOMAXPROCS(0), Workers: workers,
		SimDigest: fmt.Sprintf("%016x", r.ref),
		Metrics:   make(map[string]metric),
	}
	budget := time.Duration(seconds * float64(time.Second))
	if !traced {
		stats, err := r.measure(nil, workers, budget, minIters)
		if err != nil {
			return nil, err
		}
		res.Iterations, res.Ops = len(stats), stats[0].out.ops
		for _, st := range stats {
			res.IterWallMs = append(res.IterWallMs, float64(st.wallNs)/1e6)
			res.IterCPUMs = append(res.IterCPUMs, float64(st.cpuNs)/1e6)
		}
		vals := endToEndValues(stats, setupSecs)
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
		}
	} else {
		base, err := r.measure(nil, workers, budget/4, 2)
		if err != nil {
			return nil, err
		}
		tr, err := newTracer(1 << 20)
		if err != nil {
			return nil, err
		}
		stats, err := r.measure(tr, workers, budget/2, minIters)
		if err != nil {
			return nil, err
		}
		if tr.dropped > 0 {
			return nil, fmt.Errorf("%s: trace buffer full, %d spans dropped", name, tr.dropped)
		}
		// One proc, one worker: what the same work costs without
		// parallelism, for the scaling-efficiency ratio.
		runtime.GOMAXPROCS(1)
		single, err := r.measure(nil, 1, budget/4, 2)
		runtime.GOMAXPROCS(workers)
		if err != nil {
			return nil, err
		}
		res.Iterations, res.Ops = len(stats), stats[0].out.ops
		vals := layerValues(r, tr, base, stats, single)
		res.Coverage = tr.coverage()
		if lat := h2LatenciesOf(r.w); lat != nil {
			res.Samples = map[string]int{
				"h2.req_us": len(lat.smallNs), "h2.bulk": len(lat.bulkNs), "h2.conn_setup": len(lat.setupNs),
			}
		}
		if err := runProbes(seed, sz, vals); err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
		}
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return nil, err
			}
			err = tr.writeNDJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
		}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	return res, nil
}

// quantile is the type-7 quantile (linear interpolation between order
// statistics) of a sample already sorted ascending; 0 for an empty one.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func medianOf(stats []iterStat, f func(iterStat) float64) float64 {
	xs := make([]float64, len(stats))
	for i, s := range stats {
		xs[i] = f(s)
	}
	return median(xs)
}

func opsPerSec(s iterStat) float64 { return float64(s.out.ops) / (float64(s.wallNs) / 1e9) }

func endToEndValues(stats []iterStat, setupSecs []float64) map[string]float64 {
	return map[string]float64{
		"setup_s":   median(setupSecs),
		"ops_per_s": medianOf(stats, opsPerSec),
		"cpu_ms_per_kop": medianOf(stats, func(s iterStat) float64 {
			return float64(s.cpuNs) / 1e6 / (float64(s.out.ops) / 1000)
		}),
		"allocs_per_op": medianOf(stats, func(s iterStat) float64 {
			return float64(s.mallocs) / float64(s.out.ops)
		}),
		"alloc_kb_per_op": medianOf(stats, func(s iterStat) float64 {
			return float64(s.bytes) / 1024 / float64(s.out.ops)
		}),
	}
}

// layerValues derives the in-workload per-layer metrics of a traced
// run: span self times (median over the traced iterations), stage
// allocation counts, the counters the last iteration read off its
// results, and the process-level context.
func layerValues(r *runner, tr *tracer, base, traced, single []iterStat) map[string]float64 {
	vals := make(map[string]float64)
	iters := len(traced)
	self := tr.selfByName()
	selfMs := func(spanName string) float64 {
		xs := make([]float64, iters)
		for it, ns := range self[spanName] {
			xs[it] = float64(ns) / 1e6
		}
		return median(xs)
	}
	for m, s := range spanMetrics {
		vals[m] = selfMs(s)
	}
	// Stage allocations repeat exactly; read them off the last iteration.
	allocs := make(map[string]float64)
	for _, s := range tr.spans {
		if int(s.iter) == iters-1 && s.allocs >= 0 {
			allocs[tr.names[s.name]] += float64(s.allocs)
		}
	}
	c := traced[iters-1].out.counters
	for k, v := range c {
		if k[0] != '_' {
			vals[k] = v
		}
	}
	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	// The generate stage's count includes the columnar encode in its emit
	// callback, which allocates well under one object per page.
	vals["webgen.allocs_per_page"] = per(allocs["webgen.generate"], c["webgen.pages"])
	vals["report.allocs_per_page"] = per(allocs["report.fold"]-c["_decode_allocs"]+allocs["report.tables"]+
		allocs["report.figures"]+allocs["report.fig9model"]+allocs["report.policy"], c["webgen.pages"])
	vals["core.allocs_per_visit"] = per(allocs["core.replay.h1"]+allocs["core.replay.h2"]+allocs["core.replay.h3"], c["core.page_visits"])
	vals["loadgen.allocs_per_visit"] = per(allocs["loadgen.run"], c["loadgen.visits"])
	vals["scenario.allocs_per_cell"] = per(allocs["scenario.run"], c["scenario.cells"])
	vals["scenario.cell_us"] = per(vals["scenario.run_ms"]*1000, c["scenario.cells"])

	if lat := h2LatenciesOf(r.w); lat != nil {
		for _, xs := range [][]int64{lat.smallNs, lat.bulkNs, lat.setupNs, lat.shakeNs} {
			slices.Sort(xs)
		}
		vals["h2.req_us_p50"] = quantile(lat.smallNs, 0.50) / 1e3
		vals["h2.req_us_p99"] = quantile(lat.smallNs, 0.99) / 1e3
		vals["h2.req_us_p999"] = quantile(lat.smallNs, 0.999) / 1e3
		vals["h2.conn_setup_ms_p50"] = quantile(lat.setupNs, 0.50) / 1e6
		vals["h2.handshake_ms_p50"] = quantile(lat.shakeNs, 0.50) / 1e6
		if p50 := quantile(lat.bulkNs, 0.50); p50 > 0 {
			vals["h2.bulk_mb_per_s"] = float64(h2BulkBody) / 1e6 / (p50 / 1e9)
		}
		vals["h2.origin_frames_seen"] = per(float64(lat.originFrm), float64(iters))
	}

	opsTraced, opsBase, opsSingle := medianOf(traced, opsPerSec), medianOf(base, opsPerSec), medianOf(single, opsPerSec)
	vals["trace.overhead_ratio"] = opsTraced / opsBase
	vals["parallel.scale_eff_w2"] = opsBase / (float64(r.workers) * opsSingle)
	vals["process.peak_rss_mb"] = peakRSSMB()
	vals["process.gc_cycles"] = medianOf(traced, func(s iterStat) float64 { return float64(s.gcCycles) })
	vals["process.gc_pause_ms"] = medianOf(traced, func(s iterStat) float64 { return float64(s.gcPause) / 1e6 })
	return vals
}

func h2LatenciesOf(w workload) *h2Latencies {
	if h, ok := w.(*h2Live); ok {
		return h.lat
	}
	return nil
}
