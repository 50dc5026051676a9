package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func pageWorkload() []Resource {
	return []Resource{
		{ID: 1, Priority: 0, Bytes: 30_000},   // HTML
		{ID: 3, Priority: 1, Bytes: 20_000},   // CSS
		{ID: 5, Priority: 1, Bytes: 15_000},   // CSS
		{ID: 7, Priority: 2, Bytes: 60_000},   // sync JS
		{ID: 9, Priority: 3, Bytes: 40_000},   // font
		{ID: 11, Priority: 4, Bytes: 200_000}, // hero image
		{ID: 13, Priority: 4, Bytes: 150_000}, // image
		{ID: 15, Priority: 4, Bytes: 90_000},  // image
	}
}

func TestCoalescedDeliveryHasNoInversions(t *testing.T) {
	ds := deliverCoalesced(pageWorkload(), 1000)
	if inv := inversions(ds); inv != 0 {
		t.Errorf("coalesced inversions = %d (§6.1 says intended order always holds)", inv)
	}
	// All bytes delivered: last completion = total bytes / bandwidth.
	total := 0.0
	for _, r := range pageWorkload() {
		total += r.Bytes
	}
	last := 0.0
	for _, d := range ds {
		if d.CompleteMs > last {
			last = d.CompleteMs
		}
	}
	if math.Abs(last-total/1000) > 1e-6 {
		t.Errorf("last completion %v, want %v", last, total/1000)
	}
}

func TestParallelDeliveryInvertsPriorities(t *testing.T) {
	p := parallelParams{
		connections:       6,
		bandwidthKBps:     1000,
		handshakeMs:       100,
		handshakeJitterMs: 120,
		slowStartPenalty:  2,
		seed:              3,
	}
	ds := deliverParallel(pageWorkload(), p)
	if inv := inversions(ds); inv == 0 {
		t.Error("parallel delivery produced perfect ordering; network effects should reorder")
	}
}

func TestCompareFavorsCoalescedOrdering(t *testing.T) {
	cmp := Compare(pageWorkload(), 6)
	if cmp.CoalescedInversions != 0 {
		t.Errorf("coalesced inversions = %d", cmp.CoalescedInversions)
	}
	if cmp.ParallelInversions <= cmp.CoalescedInversions {
		t.Error("parallel did not invert more than coalesced")
	}
	// Critical resources (priority ≤ 2) finish earlier when the single
	// connection dedicates full bandwidth to them first.
	if cmp.CoalescedCriticalMs >= cmp.ParallelCriticalMs {
		t.Errorf("critical path: coalesced %.0f >= parallel %.0f",
			cmp.CoalescedCriticalMs, cmp.ParallelCriticalMs)
	}
	if cmp.Report() == "" {
		t.Error("empty report")
	}
}

// permute returns a deterministic permutation of rs keyed by k.
func permute(rs []Resource, k int) []Resource {
	out := append([]Resource(nil), rs...)
	rng := rand.New(rand.NewSource(int64(k)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func deliveryOrder(ds []delivery) []uint32 {
	ids := make([]uint32, len(ds))
	for i, d := range ds {
		ids[i] = d.ID
	}
	return ids
}

// TestCoalescedEqualSizeTieOrder is the regression test for the
// non-stable sort.Slice on Bytes alone: equal-size resources in one
// priority class completed in implementation-defined order that varied
// with the input permutation. The sort is now keyed by (Bytes, ID), so
// every permutation of the same workload must deliver identically.
func TestCoalescedEqualSizeTieOrder(t *testing.T) {
	ties := []Resource{
		{ID: 9, Priority: 2, Bytes: 50_000},
		{ID: 1, Priority: 2, Bytes: 50_000},
		{ID: 5, Priority: 2, Bytes: 50_000},
		{ID: 3, Priority: 2, Bytes: 50_000},
		{ID: 7, Priority: 2, Bytes: 25_000},
	}
	want := deliveryOrder(deliverCoalesced(ties, 1000))
	// The smaller resource finishes first; ties then complete in ID order.
	wantIDs := []uint32{7, 1, 3, 5, 9}
	for i, id := range wantIDs {
		if want[i] != id {
			t.Fatalf("delivery order %v, want %v", want, wantIDs)
		}
	}
	for k := 0; k < 20; k++ {
		got := deliveryOrder(deliverCoalesced(permute(ties, k), 1000))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("permutation %d delivered %v, want %v (tie order depends on input order)", k, got, want)
			}
		}
	}
}

// TestParallelCompleteMsTieOrder audits deliverParallel's output sort
// the same way: two connections with identical queues complete their
// resources at identical instants, and the final sort must order those
// ties by ID rather than leaving them in implementation-defined order.
// (Queue assignment itself is round-robin over request order, so the
// input permutation legitimately changes which connection a resource
// rides — only the tie ordering in the sorted output is pinned here.)
func TestParallelCompleteMsTieOrder(t *testing.T) {
	// Request order 8,6,4,2 over 2 symmetric connections: queues are
	// [8,4] and [6,2], so 8 and 6 complete together at t1, then 4 and 2
	// at t2. The (CompleteMs, ID) key must yield 6,8,2,4 exactly.
	rs := []Resource{
		{ID: 8, Priority: 1, Bytes: 40_000},
		{ID: 6, Priority: 1, Bytes: 40_000},
		{ID: 4, Priority: 1, Bytes: 40_000},
		{ID: 2, Priority: 1, Bytes: 40_000},
	}
	p := parallelParams{connections: 2, bandwidthKBps: 1000, slowStartPenalty: 1}
	ds := deliverParallel(rs, p)
	if ds[0].CompleteMs != ds[1].CompleteMs || ds[2].CompleteMs != ds[3].CompleteMs {
		t.Fatalf("workload did not produce the intended completion ties: %+v", ds)
	}
	got := deliveryOrder(ds)
	want := []uint32{6, 8, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v (CompleteMs ties not keyed by ID)", got, want)
		}
	}
}

// TestCoalescedByteConservationQuick is the byte-conservation property:
// under strict priority preemption, the last completion within each
// priority class equals the cumulative bytes of all classes up to and
// including it divided by the bandwidth — no bytes are lost, duplicated,
// or delivered out of class order.
func TestCoalescedByteConservationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		const bw = 1250.0
		rs := make([]Resource, n)
		for i := range rs {
			rs[i] = Resource{
				ID:       uint32(i + 1),
				Priority: rng.Intn(5),
				Bytes:    float64(1 + rng.Intn(100_000)),
			}
		}
		ds := deliverCoalesced(rs, bw)
		if len(ds) != n {
			return false
		}
		if inversions(ds) != 0 {
			return false
		}
		// Cumulative bytes per ascending priority class.
		cum := 0.0
		for pri := 0; pri <= 4; pri++ {
			classBytes, classLast, present := 0.0, 0.0, false
			for i, r := range rs {
				if r.Priority == pri {
					classBytes += r.Bytes
					present = true
					_ = i
				}
			}
			if !present {
				continue
			}
			cum += classBytes
			for _, d := range ds {
				if d.Priority == pri && d.CompleteMs > classLast {
					classLast = d.CompleteMs
				}
			}
			if math.Abs(classLast-cum/bw) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDeliverParallelSingleConnDegeneratesToCoalesced(t *testing.T) {
	// One connection with no handicaps delivers in priority order.
	ds := deliverParallel(pageWorkload(), parallelParams{
		connections: 1, bandwidthKBps: 1000, slowStartPenalty: 1,
	})
	if inv := inversions(ds); inv != 0 {
		t.Errorf("single parallel connection inverted %d pairs", inv)
	}
}
