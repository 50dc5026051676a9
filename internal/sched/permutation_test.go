package sched

import (
	"math/rand"
	"reflect"
	"testing"
)

// deliverCoalesced keys its fair-sharing walk by (Bytes, ID), so
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
	want := deliverCoalesced(base, 1000)
	rs := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := make([]Resource, len(base))
		for i, j := range rs.Perm(len(base)) {
			perm[i] = base[j]
		}
		if got := deliverCoalesced(perm, 1000); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: delivery depends on input order: got %v, want %v", trial, got, want)
		}
	}
}
