// Package sched is a delivery simulator that quantifies the paper's
// §6.1 argument — on a single coalesced connection the server controls
// delivery order, while resources split across parallel connections
// arrive in an order set by network effects, violating the page's
// intended priorities.
package sched

import (
	"fmt"
	"sort"
	"strings"

	"respectorigin/internal/lazyrand"
)

// Resource is one response body to deliver to the client.
type Resource struct {
	ID uint32
	// Priority orders resources by importance (lower = more critical;
	// e.g. 0 = HTML, 1 = CSS, 2 = sync JS, 3 = fonts, 4 = images).
	Priority int
	// Bytes is the body size.
	Bytes float64
}

// delivery records when a resource finished arriving.
type delivery struct {
	ID         uint32
	Priority   int
	CompleteMs float64
}

// inversions counts priority-order violations: pairs where a
// less-important resource completed before a more-important one.
func inversions(ds []delivery) int {
	inv := 0
	for i := 0; i < len(ds); i++ {
		for j := 0; j < len(ds); j++ {
			if ds[i].Priority < ds[j].Priority && ds[i].CompleteMs > ds[j].CompleteMs {
				inv++
			}
		}
	}
	return inv
}

// criticalCompleteMs returns when the last resource at or below the
// given priority finished — the render-blocking completion time.
func criticalCompleteMs(ds []delivery, maxPriority int) float64 {
	t := 0.0
	for _, d := range ds {
		if d.Priority <= maxPriority && d.CompleteMs > t {
			t = d.CompleteMs
		}
	}
	return t
}

// deliverCoalesced simulates delivery of all resources over one HTTP/2
// connection whose server schedules by priority class: resources of a
// more important class fully preempt less important ones, and resources
// within a class share bandwidth equally. bandwidthKBps is the
// connection's bottleneck share; the single connection owns the whole
// bottleneck.
//
// Because one sender controls the ordering, the client receives bytes
// exactly in intended priority order (§6.1: "coalesced resources are
// always received in the ordering intended").
func deliverCoalesced(resources []Resource, bandwidthKBps float64) []delivery {
	byPri := map[int][]Resource{}
	var pris []int
	for _, r := range resources {
		if _, ok := byPri[r.Priority]; !ok {
			pris = append(pris, r.Priority)
		}
		byPri[r.Priority] = append(byPri[r.Priority], r)
	}
	sort.Ints(pris)
	now := 0.0
	var out []delivery
	for _, pri := range pris {
		group := byPri[pri]
		// Within a class, equal weights: round-robin means all finish
		// together at the group transfer time, except that smaller
		// resources finish proportionally earlier. Model exact weighted
		// fair sharing: resources finish in order of size; when one
		// finishes, the rest share its bandwidth.
		remaining := append([]Resource(nil), group...)
		// Key by (Bytes, ID): sort.Slice is not stable, so equal-size
		// resources would otherwise complete in implementation-defined
		// order that varies with the input permutation.
		sort.Slice(remaining, func(i, j int) bool {
			if remaining[i].Bytes != remaining[j].Bytes {
				return remaining[i].Bytes < remaining[j].Bytes
			}
			return remaining[i].ID < remaining[j].ID
		})
		left := make([]float64, len(remaining))
		for i, r := range remaining {
			left[i] = r.Bytes
		}
		done := 0
		for done < len(remaining) {
			active := len(remaining) - done
			// The smallest remaining finishes first under fair sharing.
			idx := done
			v := left[idx]
			dt := v * float64(active) / bandwidthKBps
			for i := done; i < len(remaining); i++ {
				left[i] -= v
			}
			now += dt
			out = append(out, delivery{ID: remaining[idx].ID, Priority: pri, CompleteMs: now})
			done++
		}
	}
	return out
}

// The network Compare delivers over: netsim's default 50 Mbit/s
// bottleneck, and for each parallel connection a handshake of 150 ms
// plus up to 180 ms of jitter from a stream seeded 1, then a first
// transfer at half rate.
const (
	bandwidthKBps     float64 = 6250
	handshakeMs       float64 = 150
	handshakeJitterMs float64 = 180
	slowStartPenalty  float64 = 2
	parallelSeed      int64   = 1
)

// parallelParams configures deliverParallel.
type parallelParams struct {
	// connections is the number of competing connections the resources
	// are spread over (one per sharded hostname).
	connections int
	// bandwidthKBps is the shared bottleneck capacity.
	bandwidthKBps float64
	// handshakeMs staggers each connection's start (TCP+TLS setup).
	handshakeMs float64
	// handshakeJitterMs randomizes per-connection start.
	handshakeJitterMs float64
	// slowStartPenalty multiplies early transfer time on each
	// connection (congestion-window ramp); 1 = none.
	slowStartPenalty float64
	seed             int64
}

// deliverParallel simulates the sharded status quo: resources are
// assigned round-robin to independent connections that compete for the
// bottleneck. Each connection delivers its own queue in order, but the
// client has no cross-connection ordering control: arrival order is set
// by connection start times, queue lengths, and bandwidth competition.
func deliverParallel(resources []Resource, p parallelParams) []delivery {
	if p.connections < 1 {
		p.connections = 1
	}
	rng := lazyrand.New(p.seed)
	queues := make([][]Resource, p.connections)
	// Requests are issued in priority order, but hostname sharding
	// scatters them across connections.
	ordered := append([]Resource(nil), resources...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Priority < ordered[j].Priority })
	for i, r := range ordered {
		c := i % p.connections
		queues[c] = append(queues[c], r)
	}
	perConn := p.bandwidthKBps / float64(p.connections)
	var out []delivery
	for c, q := range queues {
		now := p.handshakeMs + rng.Float64()*p.handshakeJitterMs
		first := true
		for _, r := range q {
			rate := perConn
			if first {
				rate = perConn / p.slowStartPenalty
				first = false
			}
			now += r.Bytes / rate
			out = append(out, delivery{ID: r.ID, Priority: r.Priority, CompleteMs: now})
		}
		_ = c
	}
	// Key by (CompleteMs, ID): simultaneous completions (equal queue
	// shapes across connections) must not land in implementation-defined
	// order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].CompleteMs != out[j].CompleteMs {
			return out[i].CompleteMs < out[j].CompleteMs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Comparison summarizes coalesced vs parallel delivery of one workload.
type Comparison struct {
	CoalescedInversions int
	ParallelInversions  int
	CoalescedCriticalMs float64
	ParallelCriticalMs  float64
}

// Compare runs both disciplines over the same workload: one coalesced
// connection against the resources spread over connections parallel ones.
func Compare(resources []Resource, connections int) Comparison {
	co := deliverCoalesced(resources, bandwidthKBps)
	pa := deliverParallel(resources, parallelParams{
		connections:       connections,
		bandwidthKBps:     bandwidthKBps,
		handshakeMs:       handshakeMs,
		handshakeJitterMs: handshakeJitterMs,
		slowStartPenalty:  slowStartPenalty,
		seed:              parallelSeed,
	})
	return Comparison{
		CoalescedInversions: inversions(co),
		ParallelInversions:  inversions(pa),
		CoalescedCriticalMs: criticalCompleteMs(co, 2),
		ParallelCriticalMs:  criticalCompleteMs(pa, 2),
	}
}

// Report renders a comparison.
func (c Comparison) Report() string {
	var sb strings.Builder
	sb.WriteString("Scheduling comparison (§6.1):\n")
	fmt.Fprintf(&sb, "  priority inversions:       coalesced %d, parallel %d\n",
		c.CoalescedInversions, c.ParallelInversions)
	fmt.Fprintf(&sb, "  critical-path completion:  coalesced %.0f ms, parallel %.0f ms\n",
		c.CoalescedCriticalMs, c.ParallelCriticalMs)
	return sb.String()
}
