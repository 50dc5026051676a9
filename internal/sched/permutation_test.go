package sched

import (
	"math/rand"
	"reflect"
	"testing"
)

// Allocation must be a pure function of the tree's shape, not of the
// order streams were added: allocate sorts sibling shares by stream id,
// which is unique (the nodes map key), so the unstable sort is total.
func TestAllocateInsertionOrderInvariant(t *testing.T) {
	type add struct {
		id, parent uint32
		weight     int
	}
	adds := []add{
		{1, 0, 16}, {3, 0, 16}, {5, 0, 16}, // equal-weight siblings
		{7, 1, 32}, {9, 1, 32}, // equal-weight subtree
		{11, 3, 8},
	}
	build := func(order []int) map[uint32]float64 {
		tr := NewTree()
		for _, i := range order {
			a := adds[i]
			if err := tr.Add(a.id, a.parent, a.weight, false); err != nil {
				t.Fatal(err)
			}
		}
		// Leave interior stream 1 inactive so its weight passes down to
		// its equal-weight children — the tie the sort must not reorder.
		tr.SetActive(1, false)
		return tr.Allocate(9600)
	}
	// The dependency constraint (parents before children) leaves several
	// legal insertion orders; all must allocate identically.
	want := build([]int{0, 1, 2, 3, 4, 5})
	for _, order := range [][]int{
		{2, 1, 0, 5, 3, 4},
		{1, 5, 0, 2, 4, 3},
	} {
		if got := build(order); !reflect.DeepEqual(got, want) {
			t.Errorf("Allocate depends on insertion order %v: got %v, want %v", order, got, want)
		}
	}
}

// DeliverCoalesced keys its fair-sharing walk by (Bytes, ID), so
// permuting the input — including resources with identical sizes and
// priorities — must not change a single delivery record.
func TestDeliverCoalescedPermutationInvariant(t *testing.T) {
	base := []Resource{
		{ID: 1, Priority: 0, Bytes: 40},
		{ID: 3, Priority: 1, Bytes: 100},
		{ID: 5, Priority: 1, Bytes: 100}, // ties with 3 and 7
		{ID: 7, Priority: 1, Bytes: 100},
		{ID: 9, Priority: 2, Bytes: 60},
		{ID: 11, Priority: 2, Bytes: 60}, // ties with 9
	}
	want := DeliverCoalesced(base, 1000)
	rs := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := make([]Resource, len(base))
		for i, j := range rs.Perm(len(base)) {
			perm[i] = base[j]
		}
		if got := DeliverCoalesced(perm, 1000); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: delivery depends on input order: got %v, want %v", trial, got, want)
		}
	}
}
