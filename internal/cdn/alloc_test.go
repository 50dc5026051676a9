package cdn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"respectorigin/internal/faults"
)

// observeN feeds n records whose ConnID and ArrivalOrder carry their
// position, so order and tearing show.
func observeN(lp *LogPipeline, from, n int) {
	for i := from; i < from+n; i++ {
		lp.observeRecord(logRecord{ConnID: uint64(i), ArrivalOrder: i + 1, SNI: "zone", Host: "third"})
	}
}

// checkLog holds each and Records to the same n records in log order,
// each whole and flagged, and Totals to their count.
func checkLog(t *testing.T, lp *LogPipeline, n int) {
	t.Helper()
	if total, sampled := lp.Totals(); total != int64(n) || sampled != int64(n) {
		t.Fatalf("Totals = %d, %d; want %d, %d", total, sampled, n, n)
	}
	i := 0
	lp.each(func(r *logRecord) {
		if r.ConnID != uint64(i) || r.ArrivalOrder != i+1 || !r.FlagHostNeSNI {
			t.Fatalf("each record %d of %d = %+v", i, n, *r)
		}
		i++
	})
	if i != n {
		t.Fatalf("each visited %d records, want %d", i, n)
	}
	recs := lp.records()
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
// request, and each walking the log while observeRecord extends it.
func TestLogPipelineBlockBoundaries(t *testing.T) {
	const block = logBlockRecords
	for _, n := range []int{0, block - 1, block, block + 1, 3*block + 1} {
		lp := newLogPipeline(1, 1)
		observeN(lp, 0, n)
		checkLog(t, lp, n)

		lp.reset()
		checkLog(t, lp, 0)
		observeN(lp, 0, block+2)
		checkLog(t, lp, block+2)
	}

	// records hands out a copy: writing to it leaves the log alone.
	lp := newLogPipeline(1, 1)
	observeN(lp, 0, 3)
	lp.records()[1].ConnID = 99
	checkLog(t, lp, 3)

	// Sampling keeps exactly the requests whose draw fell under the rate,
	// one draw per request, across block boundaries.
	const rate, seed, requests = 0.5, 11, 5 * block
	lp = newLogPipeline(rate, seed)
	observeN(lp, 0, requests)
	ref := rand.New(rand.NewSource(seed))
	var want []uint64
	for i := 0; i < requests; i++ {
		if ref.Float64() < rate {
			want = append(want, uint64(i))
		}
	}
	recs := lp.records()
	if total, sampled := lp.Totals(); total != requests || int(sampled) != len(want) || len(recs) != len(want) {
		t.Fatalf("sampled %d of %d (%d records), want %d", sampled, total, len(recs), len(want))
	}
	for i, r := range recs {
		if r.ConnID != want[i] {
			t.Fatalf("sampled record %d is request %d, want %d", i, r.ConnID, want[i])
		}
	}

	// each concurrent with observeRecord (run under -race): every walk sees a
	// whole prefix of the log.
	lp = newLogPipeline(1, 1)
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
				lp.each(func(r *logRecord) {
					if r.ConnID != uint64(seen) || r.ArrivalOrder != seen+1 || !r.FlagHostNeSNI {
						t.Errorf("concurrent each: record %d = %+v", seen, *r)
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
			c.Pipeline().reset()
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

// The log stores a record as a logEntry of at most 40 bytes that holds
// no pointer, so the collector never scans it: a planned passive run at
// SampleRate 1 allocates at most 48 bytes per sampled record beyond its
// plan (storing LogRecords, four strings each, took over 100).
func TestLogBytesPerRecord(t *testing.T) {
	typ := reflect.TypeFor[logEntry]()
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("logEntry.%s is a %s, which can hold a pointer", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(logEntry{}); size > 40 {
		t.Errorf("logEntry is %d bytes, want ≤ 40", size)
	}

	c := New(Config{SampleRate: 1, Seed: 5})
	cfg := DefaultExperimentConfig()
	cfg.SampleSize, cfg.Seed, cfg.Workers = 1000, 5, 1
	e := SetupExperiment(c, cfg)
	c.EnterPhaseIP()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for day := 0; day < 5; day++ {
		e.runDay(day)
	}
	runtime.ReadMemStats(&after)
	_, sampled := c.Pipeline().Totals()
	planBytes := uint64(cap(e.plan)) * uint64(unsafe.Sizeof(visitPlan{}))
	bytes := after.TotalAlloc - before.TotalAlloc
	perRecord := float64(bytes-min(bytes, planBytes)) / float64(sampled)
	t.Logf("5 planned days: %d bytes for %d records and a %d-byte plan, %.1f bytes a record", bytes, sampled, planBytes, perRecord)
	if perRecord > 48 {
		t.Errorf("%.1f bytes a record, want ≤ 48", perRecord)
	}
}

// What observeRecord takes, Records and each give back, field for field: names
// distinct, shared, empty and non-ASCII; across block boundaries and
// after a Reset; every field at the bounds of its stored width. A Day or
// ArrivalOrder that does not fit panics, naming the field, and logs
// nothing.
func TestLogRecordRoundTrip(t *testing.T) {
	names := []string{"", "www.sample-1.example", "cdnjs.cloudflare.com", "bücher.例え.jp", "firefox", "chrome"}
	records := []logRecord{
		{ConnID: math.MaxUint64, Day: math.MaxInt32, ArrivalOrder: math.MaxInt32, Treatment: TreatmentExperiment},
		{Day: math.MinInt32, ArrivalOrder: math.MinInt32, SNI: names[3], Host: names[3], RefererHost: names[3], UserAgent: names[3]},
	}
	for i := 0; len(records) < 2*logBlockRecords+3; i++ {
		records = append(records, logRecord{
			Day: i % 7, ConnID: uint64(i), ArrivalOrder: i%5 + 1,
			SNI: names[i%len(names)], Host: names[i/2%len(names)], RefererHost: names[i/3%len(names)],
			Treatment: Treatment(i % 3), UserAgent: names[i/5%len(names)],
		})
	}
	for i := range records {
		records[i].FlagHostNeSNI = records[i].SNI != records[i].Host
	}

	lp := newLogPipeline(1, 1)
	for round := 0; round < 2; round++ {
		lp.reset()
		for _, r := range records {
			lp.observeRecord(r)
		}
		if got := lp.records(); !slices.Equal(got, records) {
			t.Fatalf("round %d: Records gave back %d records, not the %d observed", round, len(got), len(records))
		}
		i := 0
		lp.each(func(r *logRecord) {
			if *r != records[i] {
				t.Fatalf("round %d: each record %d = %+v, want %+v", round, i, *r, records[i])
			}
			i++
		})
		if i != len(records) {
			t.Fatalf("round %d: each visited %d records, want %d", round, i, len(records))
		}
	}

	for _, bad := range []struct {
		field string
		r     logRecord
	}{
		{"Day", logRecord{Day: math.MaxInt32 + 1}},
		{"Day", logRecord{Day: math.MinInt32 - 1}},
		{"ArrivalOrder", logRecord{ArrivalOrder: math.MaxInt32 + 1}},
		{"ArrivalOrder", logRecord{ArrivalOrder: math.MinInt32 - 1}},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, bad.field) {
					t.Errorf("observeRecord(%+v) panicked with %q, want a panic naming %s", bad.r, msg, bad.field)
				}
			}()
			lp.observeRecord(bad.r)
		}()
	}
	if total, sampled := lp.Totals(); total != int64(len(records)) || sampled != int64(len(records)) {
		t.Errorf("after the panics Totals = %d, %d; want %d, %d", total, sampled, len(records), len(records))
	}

	// each concurrent with an observeRecord that adds names (run under -race):
	// every record a walk sees carries its own name.
	lp = newLogPipeline(1, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2*logBlockRecords+1; i++ {
			lp.observeRecord(logRecord{ConnID: uint64(i), SNI: strconv.Itoa(i), Host: "third"})
		}
	}()
	for walking := true; walking; {
		select {
		case <-done:
			walking = false // one last walk over the whole log
		default:
		}
		lp.each(func(r *logRecord) {
			if want := strconv.Itoa(int(r.ConnID)); r.SNI != want {
				t.Fatalf("concurrent each: record %d has SNI %q, want %q", r.ConnID, r.SNI, want)
			}
		})
	}
}
