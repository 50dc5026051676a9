package cdn

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

// zoneSnapshot sorts by host, the zones map key, so the listing must be
// independent of both registration order and map iteration order.
func TestZonesRegistrationOrderInvariant(t *testing.T) {
	hosts := make([]string, 12)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("www.zone-%02d.example", i)
	}
	list := func(order []int) []string {
		c := New(Config{})
		for _, i := range order {
			c.AddZone(hosts[i], netip.AddrFrom4([4]byte{10, 0, byte(i), 1}))
		}
		var out []string
		for _, z := range c.zoneSnapshot() {
			out = append(out, z.Host)
		}
		return out
	}
	want := list([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	for i := 1; i < len(want); i++ {
		if want[i-1] >= want[i] {
			t.Fatalf("Zones not strictly sorted: %q before %q", want[i-1], want[i])
		}
	}
	rs := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		got := list(rs.Perm(len(hosts)))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Zones depends on registration order: got %v, want %v", trial, got, want)
			}
		}
	}
}
