package loadgen

import (
	"math/rand"
	"testing"

	"respectorigin/internal/measure"
)

// The four reported percentiles are exact order statistics of the
// per-visit latency wait + ServiceMs + ClientMs. One PoP with one
// server makes the wait a plain FIFO recurrence the test can redo; the
// sizes make p·(n−1) integral for some quantiles and not for others.
// Each visit is its own user's only one.
func TestPercentilesAreOrderStatistics(t *testing.T) {
	cfg := Config{PoPs: 1, PoPServers: 1, SLOMs: 100}
	for _, n := range []int{1, 2, 1001, 4000} {
		rs := rand.New(rand.NewSource(int64(n)))
		perUser := make([][]visit, n)
		lat := make([]float64, n)
		arrival, free := 0.0, 0.0
		for i := range perUser {
			arrival += rs.ExpFloat64() * 10
			v := visit{ArrivalMs: arrival, ServiceMs: rs.ExpFloat64() * 9, ClientMs: rs.Float64() * 200}
			start := max(free, v.ArrivalMs)
			free = start + v.ServiceMs
			lat[i] = (start - v.ArrivalMs) + v.ServiceMs + v.ClientMs
			perUser[i] = []visit{v}
		}
		res := runQueue(cfg, perUser)
		for _, q := range []struct {
			name string
			p    float64
			got  float64
		}{
			{"P50Ms", 0.50, res.P50Ms}, {"P90Ms", 0.90, res.P90Ms},
			{"P99Ms", 0.99, res.P99Ms}, {"P999Ms", 0.999, res.P999Ms},
		} {
			if want := measure.Quantile(lat, q.p); q.got != want {
				t.Errorf("n=%d: %s = %v, want the exact order statistic %v", n, q.name, q.got, want)
			}
		}
	}
	if res := runQueue(cfg, nil); res.P50Ms != 0 || res.P90Ms != 0 || res.P99Ms != 0 || res.P999Ms != 0 {
		t.Errorf("no visits: percentiles %v %v %v %v, want zeros", res.P50Ms, res.P90Ms, res.P99Ms, res.P999Ms)
	}
}
