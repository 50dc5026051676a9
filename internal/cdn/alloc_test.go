package cdn

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"respectorigin/internal/faults"
)

// observeN feeds n records whose ConnID and ArrivalOrder carry their
// position, so order and tearing show.
func observeN(lp *LogPipeline, from, n int) {
	for i := from; i < from+n; i++ {
		lp.Observe(LogRecord{ConnID: uint64(i), ArrivalOrder: i + 1, SNI: "zone", Host: "third"})
	}
}

// checkLog holds Each and Records to the same n records in log order,
// each whole and flagged, and Totals to their count.
func checkLog(t *testing.T, lp *LogPipeline, n int) {
	t.Helper()
	if total, sampled := lp.Totals(); total != int64(n) || sampled != int64(n) {
		t.Fatalf("Totals = %d, %d; want %d, %d", total, sampled, n, n)
	}
	i := 0
	lp.Each(func(r *LogRecord) {
		if r.ConnID != uint64(i) || r.ArrivalOrder != i+1 || !r.FlagHostNeSNI {
			t.Fatalf("Each record %d of %d = %+v", i, n, *r)
		}
		i++
	})
	if i != n {
		t.Fatalf("Each visited %d records, want %d", i, n)
	}
	recs := lp.Records()
	if len(recs) != n {
		t.Fatalf("Records returned %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.ConnID != uint64(i) || r.ArrivalOrder != i+1 || !r.FlagHostNeSNI {
			t.Fatalf("Records()[%d] = %+v", i, r)
		}
	}
}

// The sampled log is stored in fixed-size blocks; nothing a caller sees
// may depend on where a block ends. Every size around the boundaries,
// before and after a Reset, with the sampler still drawing once per
// request, and Each walking the log while Observe extends it.
func TestLogPipelineBlockBoundaries(t *testing.T) {
	const block = logBlockRecords
	for _, n := range []int{0, block - 1, block, block + 1, 3*block + 1} {
		lp := NewLogPipeline(1, 1)
		observeN(lp, 0, n)
		checkLog(t, lp, n)

		lp.Reset()
		checkLog(t, lp, 0)
		observeN(lp, 0, block+2)
		checkLog(t, lp, block+2)
	}

	// Records hands out a copy: writing to it leaves the log alone.
	lp := NewLogPipeline(1, 1)
	observeN(lp, 0, 3)
	lp.Records()[1].ConnID = 99
	checkLog(t, lp, 3)

	// Sampling keeps exactly the requests whose draw fell under the rate,
	// one draw per request, across block boundaries.
	const rate, seed, requests = 0.5, 11, 5 * block
	lp = NewLogPipeline(rate, seed)
	observeN(lp, 0, requests)
	ref := rand.New(rand.NewSource(seed))
	var want []uint64
	for i := 0; i < requests; i++ {
		if ref.Float64() < rate {
			want = append(want, uint64(i))
		}
	}
	recs := lp.Records()
	if total, sampled := lp.Totals(); total != requests || int(sampled) != len(want) || len(recs) != len(want) {
		t.Fatalf("sampled %d of %d (%d records), want %d", sampled, total, len(recs), len(want))
	}
	for i, r := range recs {
		if r.ConnID != want[i] {
			t.Fatalf("sampled record %d is request %d, want %d", i, r.ConnID, want[i])
		}
	}

	// Each concurrent with Observe (run under -race): every walk sees a
	// whole prefix of the log.
	lp = NewLogPipeline(1, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		observeN(lp, 0, 3*block+1)
	}()
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seen := 0; seen < 3*block+1; {
				seen = 0
				lp.Each(func(r *LogRecord) {
					if r.ConnID != uint64(seen) || r.ArrivalOrder != seen+1 || !r.FlagHostNeSNI {
						t.Errorf("concurrent Each: record %d = %+v", seen, *r)
					}
					seen++
				})
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}

// connSet agrees with a map on dense, interleaved and far-apart IDs.
func TestConnSetMatchesMap(t *testing.T) {
	var s connSet
	ref := map[uint64]bool{}
	rng := rand.New(rand.NewSource(3))
	next := uint64(1)
	for i := 0; i < 200000; i++ {
		var id uint64
		switch x := rng.Intn(100); {
		case x < 60: // a fresh ID, minted in order
			id = next
			next++
		case x < 98: // a recent connection again
			id = next - 1 - uint64(rng.Intn(4))
		default: // anywhere at all
			id = rng.Uint64()
		}
		if got, want := s.add(id), !ref[id]; got != want {
			t.Fatalf("add(%d) #%d = %v, want %v", id, i, got, want)
		}
		ref[id] = true
	}
}

// visitAllocs runs visits and counts the heap objects they allocated.
// The count is process-wide, so an object the runtime allocates
// meanwhile (a GC worker starting, the race detector) lands in it: a
// measurement over the bound is repeated, which a stray passes and the
// visits' own allocations do not.
func visitAllocs(within func(mallocs uint64) bool, visits func()) (mallocs uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for attempt := 0; attempt < 3; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		visits()
		runtime.ReadMemStats(&after)
		if mallocs = after.Mallocs - before.Mallocs; within(mallocs) {
			break
		}
	}
	return mallocs
}

// The steady-state allocation gate on the visit kernel (ROADMAP item 3):
// zero plan, nil recorder, both deployment phases, all three client
// families. Once the experiment's browsers have seen a visit, a visit
// allocates nothing: not the browser, its connections, the connection
// table or the result, and not a DNS answer, which is the CDN's own
// slice. Logging (day ≥ 0) adds only the log's blocks, each with at most
// one growth of the list that holds them.
func TestVisitSteadyStateAllocs(t *testing.T) {
	c, e := newFaultedExperiment(400, 5, faults.Plan{}, 0)
	zones := e.SampleZones
	for _, phase := range []Phase{PhaseIP, PhaseOrigin} {
		switch phase {
		case PhaseIP:
			c.EnterPhaseIP()
		case PhaseOrigin:
			c.EnterPhaseOrigin(ip("104.19.99.99"))
		}
		for _, ua := range []string{"legacy", "chrome", "firefox"} {
			for _, z := range zones { // reach the steady state
				e.Visit(z, ua, -1)
			}
			none := func(mallocs uint64) bool { return mallocs == 0 }
			mallocs := visitAllocs(none, func() {
				for _, z := range zones {
					e.Visit(z, ua, -1)
				}
			})
			if !none(mallocs) {
				t.Errorf("%v/%s: %d visits allocated %d objects, want none", phase, ua, len(zones), mallocs)
			}
		}

		const visits = 10000
		logBlocks := func(mallocs uint64) bool {
			_, sampled := c.Pipeline().Totals()
			blocks := (sampled + logBlockRecords - 1) / logBlockRecords
			return mallocs <= 2*uint64(blocks)
		}
		mallocs := visitAllocs(logBlocks, func() {
			c.Pipeline().Reset()
			for v := 0; v < visits; v++ {
				e.Visit(zones[v%len(zones)], e.sampleUA(), 0)
			}
		})
		_, sampled := c.Pipeline().Totals()
		if sampled < visits {
			t.Fatalf("%v: %d logged visits left %d records", phase, visits, sampled)
		}
		if !logBlocks(mallocs) {
			t.Errorf("%v: %d logged visits allocated %d objects for %d records, want ≤ 2 per %d-record block", phase, visits, mallocs, sampled, logBlockRecords)
		}
		c.ExitExperiment()
	}
}
