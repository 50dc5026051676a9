package loadgen

import (
	"slices"

	"respectorigin/internal/measure"
)

// popQueue is one PoP's server pool: a min-heap of per-server
// next-free times, the event state of a G/G/c queue replayed in
// arrival order on the virtual clock.
type popQueue struct {
	free []float64 // heap-ordered next-free instants, one per server
}

func newPopQueue(servers int) *popQueue {
	return &popQueue{free: make([]float64, servers)}
}

// admit assigns one visit arriving at arrivalMs needing serviceMs of
// server work to the earliest-free server, returning the queueing
// delay. The heap root is always the earliest-free server; after the
// assignment its new free time sifts back down.
func (q *popQueue) admit(arrivalMs, serviceMs float64) (waitMs float64) {
	start := q.free[0]
	if arrivalMs > start {
		start = arrivalMs
	}
	waitMs = start - arrivalMs
	q.free[0] = start + serviceMs
	q.siftDown(0)
	return waitMs
}

func (q *popQueue) siftDown(i int) {
	n := len(q.free)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.free[l] < q.free[min] {
			min = l
		}
		if r < n && q.free[r] < q.free[min] {
			min = r
		}
		if min == i {
			return
		}
		q.free[i], q.free[min] = q.free[min], q.free[i]
		i = min
	}
}

// queueKey is where one visit stands in the queueing pass: its arrival,
// then its user and its index within the user, which break ties, so no
// two visits' keys are equal.
type queueKey struct {
	arrivalMs float64
	uid, seq  int32
}

func compareKeys(a, b queueKey) int {
	switch {
	case a.arrivalMs < b.arrivalMs:
		return -1
	case a.arrivalMs > b.arrivalMs:
		return 1
	case a.uid != b.uid:
		return int(a.uid) - int(b.uid)
	}
	return int(a.seq) - int(b.seq)
}

// runQueue is the sequential aggregation phase: it replays every visit
// of perUser (user i's visits at index i, in visit order) in (arrival,
// user, seq) order through its PoP's queue, accumulates the run totals
// in that one fixed order and keeps every latency for the exact
// percentiles. The order comes from sorting one 16-byte key a visit;
// the visits stay where the users left them. Nothing here runs
// concurrently, so float addition order — and with it every output
// byte — is a pure function of the visit set.
func runQueue(cfg Config, perUser [][]visit) Result {
	n := 0
	for _, vs := range perUser {
		n += len(vs)
	}
	keys := make([]queueKey, 0, n)
	for uid, vs := range perUser {
		for seq := range vs {
			keys = append(keys, queueKey{vs[seq].ArrivalMs, int32(uid), int32(seq)})
		}
	}
	slices.SortFunc(keys, compareKeys)

	pops := make([]*popQueue, cfg.PoPs)
	for i := range pops {
		pops[i] = newPopQueue(cfg.PoPServers)
	}

	lat := make([]float64, 0, n)
	res := Result{
		Users: cfg.Users, Arrival: cfg.Arrival, Seed: cfg.Seed,
		Proto:      cfg.Proto.String(),
		RatePerSec: cfg.RatePerSec, SLOMs: cfg.SLOMs,
		PoPs: cfg.PoPs, PoPServers: cfg.PoPServers,
	}
	sloMet := 0
	var sumLatency, sumWait, maxLatency, lastDone float64
	for _, k := range keys {
		v := &perUser[k.uid][k.seq]
		wait := pops[v.PoP].admit(v.ArrivalMs, v.ServiceMs)
		latency := wait + v.ServiceMs + v.ClientMs
		done := v.ArrivalMs + latency
		if done > lastDone {
			lastDone = done
		}
		lat = append(lat, latency)
		sumLatency += latency
		sumWait += wait
		if latency > maxLatency {
			maxLatency = latency
		}
		if latency <= cfg.SLOMs {
			sloMet++
		}

		res.Visits++
		res.Requests += int64(v.Requests)
		res.FreshConns += int64(v.FreshConns)
		res.ResumedConns += int64(v.Resumed)
		res.ZeroRTTConns += int64(v.ZeroRTT)
		res.AddrTokenHits += int64(v.AddrTokens)
		res.ReusedReqs += int64(v.Reused)
		res.CoalescedReqs += int64(v.Coalesced)
		res.DNSQueries += int64(v.DNSQueries)
		res.DNSCacheHits += int64(v.DNSHits)
		res.ChurnedConns += int64(v.Churned)
		res.FailedReqs += int64(v.Failed)
	}

	if n > 0 {
		res.SpanSec = lastDone / 1000
		// Offered load in the open-loop sense: the demand rate the
		// arrival process pushes (λ users/s times mean requests per
		// user), independent of how fast the system drains it. The
		// achieved throughput is Requests/SpanSec, which under overload
		// falls below this.
		res.OfferedRPS = cfg.RatePerSec * float64(res.Requests) / float64(cfg.Users)
		res.MeanMs = sumLatency / float64(n)
		res.MeanWaitMs = sumWait / float64(n)
		res.MaxMs = maxLatency
		pct := measure.Summarize(lat)
		res.P50Ms, res.P90Ms, res.P99Ms, res.P999Ms = pct.Median, pct.P90, pct.P99, pct.P999
		res.SLOAttainment = float64(sloMet) / float64(n)
	}
	if res.Requests > 0 {
		res.CoalesceRate = float64(res.CoalescedReqs) / float64(res.Requests)
	}
	return res
}
