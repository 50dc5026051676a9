// Package parallel is the corpus engine's fan-out layer: deterministic
// data-parallel primitives shared by corpus generation (internal/webgen)
// and corpus analysis (internal/core, internal/report).
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
func DoWith[S any](n, workers int, newScratch func() S, fn func(s S, i int)) {
	workers = Normalize(workers)
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return
	}
	if workers <= 1 {
		s := newScratch()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	span := chunkSpan(n, workers)
	nchunks := (n + span - 1) / span
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newScratch()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				hi := (c + 1) * span
				if hi > n {
					hi = n
				}
				for i := c * span; i < hi; i++ {
					fn(s, i)
				}
			}
		}()
	}
	wg.Wait()
}

// Map computes out[i] = fn(i) for every i in [0, n) across workers.
// Results land at their input index, so output order never depends on
// scheduling.
func Map[R any](n, workers int, fn func(i int) R) []R {
	out := make([]R, maxInt(n, 0))
	Do(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// MapWith is Map for a fn that needs working storage: every goroutine
// calls newScratch once and hands that value to each fn call it makes,
// so the storage is allocated per worker, not per index. Which indexes
// share a scratch value depends on scheduling; fn's result must not.
func MapWith[S, R any](n, workers int, newScratch func() S, fn func(s S, i int) R) []R {
	out := make([]R, maxInt(n, 0))
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
	workers = Normalize(workers)
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return newAcc()
	}
	if workers <= 1 {
		s, acc := newScratch(), newAcc()
		for i := 0; i < n; i++ {
			acc = fold(s, acc, i)
		}
		return acc
	}
	span := chunkSpan(n, workers)
	nchunks := (n + span - 1) / span
	accs := make([]A, nchunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newScratch()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				hi := (c + 1) * span
				if hi > n {
					hi = n
				}
				acc := newAcc()
				for i := c * span; i < hi; i++ {
					acc = fold(s, acc, i)
				}
				accs[c] = acc
			}
		}()
	}
	wg.Wait()
	out := accs[0]
	for _, a := range accs[1:] {
		out = merge(out, a)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
