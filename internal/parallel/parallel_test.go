package parallel

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

var workerCounts = []int{1, 2, 3, 4, 7, 16, 64}

func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, w := range workerCounts {
		const n = 1000
		var visits [n]int32
		Do(n, w, func(i int) { atomic.AddInt32(&visits[i], 1) })
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, v)
			}
		}
	}
}

// With n ≤ workers, DoWith's calls may wait on each other: here every
// call waits until all n have started. A DoWith that ran fewer
// goroutines would leave an index unstarted behind the blocked calls.
// webgen's stream relies on it: each of its workers waits for the caller,
// which waits for the others.
func TestDoWithRunsEveryIndexAtOnceUpToWorkers(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{1, 1}, {4, 4}, {3, 16}, {16, 16}} {
		var arrived atomic.Int32
		all := make(chan struct{})
		DoWith(c.n, c.workers, noScratch, func(struct{}, int) {
			if int(arrived.Add(1)) == c.n {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(5 * time.Second):
				t.Errorf("n=%d workers=%d: only %d calls started", c.n, c.workers, arrived.Load())
			}
		})
	}
}

func TestDoEmptyAndTiny(t *testing.T) {
	Do(0, 4, func(i int) { t.Fatal("fn called for n=0") })
	var count int32
	Do(1, 16, func(i int) { atomic.AddInt32(&count, 1) })
	if count != 1 {
		t.Fatalf("n=1 visited %d times", count)
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	const n = 513
	want := Map(n, 1, func(i int) int { return i * i })
	for _, w := range workerCounts[1:] {
		got := Map(n, w, func(i int) int { return i * i })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: map output differs", w)
		}
	}
}

func TestMapZeroLength(t *testing.T) {
	if got := Map(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("len = %d", len(got))
	}
}

// MapWith builds at most one scratch value per goroutine, never shares
// one between two goroutines at a time, and lands results like Map.
func TestMapWithScratchPerWorker(t *testing.T) {
	const n = 513
	type scratch struct{ busy atomic.Bool }
	for _, w := range workerCounts {
		var made atomic.Int32
		got := MapWith(n, w,
			func() *scratch { made.Add(1); return &scratch{} },
			func(s *scratch, i int) int {
				if !s.busy.CompareAndSwap(false, true) {
					t.Errorf("workers=%d: scratch used by two goroutines at once", w)
				}
				defer s.busy.Store(false)
				return i * i
			})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", w, i, v)
			}
		}
		if m := int(made.Load()); m < 1 || m > w {
			t.Errorf("workers=%d: %d scratch values built", w, m)
		}
	}
	if got := MapWith(0, 4, func() int { t.Fatal("scratch built for n=0"); return 0 },
		func(int, int) int { return 0 }); len(got) != 0 {
		t.Fatalf("len = %d", len(got))
	}
}

// noScratch is the working storage of a fold that needs none.
func noScratch() struct{} { return struct{}{} }

// FoldWith with an order-sensitive accumulator (slice append):
// contiguous chunking plus in-order merge must reproduce the sequential
// order for every worker count.
func TestFoldPreservesSequentialOrder(t *testing.T) {
	const n = 777
	newAcc := func() []int { return nil }
	fold := func(_ struct{}, acc []int, i int) []int { return append(acc, i) }
	merge := func(a, b []int) []int { return append(a, b...) }

	want := FoldWith(n, 1, noScratch, newAcc, fold, merge)
	for _, w := range workerCounts[1:] {
		got := FoldWith(n, w, noScratch, newAcc, fold, merge)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: fold order differs", w)
		}
	}
	for i, v := range want {
		if v != i {
			t.Fatalf("sequential fold wrong at %d: %d", i, v)
		}
	}
}

func TestFoldEmpty(t *testing.T) {
	got := FoldWith(0, 8, func() struct{} { t.Fatal("scratch built for n=0"); return struct{}{} },
		func() int { return 42 },
		func(_ struct{}, acc, i int) int { return acc + i },
		func(a, b int) int { return a + b })
	if got != 42 {
		t.Fatalf("empty fold = %d, want fresh accumulator", got)
	}
}

// FoldWith builds at most one scratch value per goroutine and never
// shares one between two goroutines at a time, while a map-count
// accumulator per chunk merges to the sequential counts.
func TestFoldWithScratchPerWorker(t *testing.T) {
	const n = 2000
	type scratch struct{ busy atomic.Bool }
	newAcc := func() map[int]int { return map[int]int{} }
	merge := func(a, b map[int]int) map[int]int {
		for k, v := range b {
			a[k] += v
		}
		return a
	}
	var want map[int]int
	for _, w := range workerCounts {
		var made atomic.Int32
		got := FoldWith(n, w, func() *scratch { made.Add(1); return &scratch{} }, newAcc,
			func(s *scratch, acc map[int]int, i int) map[int]int {
				if !s.busy.CompareAndSwap(false, true) {
					t.Errorf("workers=%d: scratch used by two goroutines at once", w)
				}
				defer s.busy.Store(false)
				acc[i%37]++
				return acc
			}, merge)
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: counts differ from workers=%d", w, workerCounts[0])
		}
		if m := int(made.Load()); m < 1 || m > w {
			t.Errorf("workers=%d: %d scratch values built", w, m)
		}
	}
}

func TestNormalize(t *testing.T) {
	if Normalize(0) != runtime.GOMAXPROCS(0) || Normalize(-3) != runtime.GOMAXPROCS(0) {
		t.Error("non-positive workers should resolve to GOMAXPROCS")
	}
	if Normalize(5) != 5 {
		t.Error("positive workers should pass through")
	}
}
