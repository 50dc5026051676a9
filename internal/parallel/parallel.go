// Package parallel is the corpus engine's fan-out layer: deterministic
// data-parallel primitives shared by corpus generation (internal/webgen),
// corpus analysis (internal/report, internal/privacy), the scenario
// matrix (internal/scenario), the CDN deployment's planned days
// (internal/cdn) and open-loop serving (internal/loadgen).
//
// Every primitive splits its index space into contiguous chunks, hands
// chunks to a bounded worker pool, and recombines per-chunk results in
// chunk-index order. Because chunks are contiguous and the final merge
// is left-to-right, any fold whose merge is associative with respect to
// concatenation produces output identical to a sequential loop — for
// every worker count. That invariant is what lets the crawl→model→report
// pipeline keep byte-identical artifacts while scaling across cores.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Normalize resolves a caller-supplied worker count: values ≤ 0 select
// GOMAXPROCS.
func Normalize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// chunkSpan picks the per-chunk index span for n items across workers:
// several chunks per worker for load balance, bounded so accumulator
// counts stay small.
func chunkSpan(n, workers int) int {
	span := (n + workers*4 - 1) / (workers * 4)
	if span < 1 {
		span = 1
	}
	if span > 4096 {
		span = 4096
	}
	return span
}

// Do runs fn(i) for every i in [0, n) across at most workers
// goroutines. fn must be safe to call concurrently for distinct
// indexes; each index is visited exactly once.
func Do(n, workers int, fn func(i int)) {
	DoWith(n, workers, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) })
}

// DoWith is Do for an fn that needs working storage: every goroutine
// calls newScratch once and hands that value to each fn call it makes.
// Which indexes share a scratch value depends on scheduling; what fn
// does must not.
//
// With n ≤ workers DoWith runs n goroutines, so a call blocked on
// another never keeps that other from starting: fn(i) may wait until
// fn(j) makes progress.
func DoWith[S any](n, workers int, newScratch func() S, fn func(s S, i int)) {
	runChunks(n, workers, newScratch, func(s S, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(s, i)
		}
	})
}

// layout splits [0, n) for at most workers goroutines: it returns how
// many goroutines to run, the span of each chunk and the chunk count.
// A single goroutine takes one chunk over [0, n).
func layout(n, workers int) (goroutines, span, chunks int) {
	workers = min(Normalize(workers), n)
	if workers <= 1 {
		return 1, n, 1
	}
	span = chunkSpan(n, workers)
	return workers, span, (n + span - 1) / span
}

// runChunks runs body(s, c, lo, hi) for every chunk c = [lo, hi) of
// layout(n, workers), and nothing when n ≤ 0. Goroutines claim chunks
// in index order from a shared counter; the calling goroutine is one
// of them. Each calls newScratch once and hands that value to every
// body call it makes.
func runChunks[S any](n, workers int, newScratch func() S, body func(s S, c, lo, hi int)) {
	if n <= 0 {
		return
	}
	goroutines, span, chunks := layout(n, workers)
	var next atomic.Int64
	work := func() {
		s := newScratch()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * span
			body(s, c, lo, min(lo+span, n))
		}
	}
	var wg sync.WaitGroup
	for range goroutines - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Map computes out[i] = fn(i) for every i in [0, n) across workers.
// Results land at their input index, so output order never depends on
// scheduling.
func Map[R any](n, workers int, fn func(i int) R) []R {
	out := make([]R, max(n, 0))
	Do(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// MapWith is Map for a fn that needs working storage: every goroutine
// calls newScratch once and hands that value to each fn call it makes,
// so the storage is allocated per worker, not per index. Which indexes
// share a scratch value depends on scheduling; fn's result must not.
func MapWith[S, R any](n, workers int, newScratch func() S, fn func(s S, i int) R) []R {
	out := make([]R, max(n, 0))
	DoWith(n, workers, newScratch, func(s S, i int) { out[i] = fn(s, i) })
	return out
}

// FoldWith reduces [0, n) into a single accumulator across workers:
// each contiguous chunk is folded locally in index order into a fresh
// accumulator from newAcc, and chunk accumulators are merged
// left-to-right in chunk order. For any merge that is associative with
// respect to concatenation, the result is identical to
//
//	s, acc := newScratch(), newAcc()
//	for i := 0; i < n; i++ { acc = fold(s, acc, i) }
//
// regardless of the worker count. As in MapWith, every goroutine calls
// newScratch once and hands that value to each fold call it makes, so
// working storage is per worker while accumulators are per chunk.
// Which chunks share a scratch value depends on scheduling; the
// accumulators must not.
func FoldWith[S, A any](n, workers int, newScratch func() S, newAcc func() A, fold func(s S, acc A, i int) A, merge func(a, b A) A) A {
	if n <= 0 {
		return newAcc()
	}
	_, _, chunks := layout(n, workers)
	accs := make([]A, chunks)
	runChunks(n, workers, newScratch, func(s S, c, lo, hi int) {
		acc := newAcc()
		for i := lo; i < hi; i++ {
			acc = fold(s, acc, i)
		}
		accs[c] = acc
	})
	out := accs[0]
	for _, a := range accs[1:] {
		out = merge(out, a)
	}
	return out
}
