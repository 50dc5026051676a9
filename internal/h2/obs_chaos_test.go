package h2

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"respectorigin/internal/conformance"
	"respectorigin/internal/faults"
	"respectorigin/internal/obs"
)

// TestChaosRecorderWiring drives several concurrent client/server
// pairs — one clean, the rest over ChaosConn with reset plans — with a
// shared Metrics+Trace recorder wired into every server. Run under
// -race (the CI observability job does) this checks that recorder
// callbacks from concurrent serve loops never race, and that no h2
// goroutine outlives its connection when instrumentation is on.
func TestChaosRecorderWiring(t *testing.T) {
	metrics := obs.NewMetrics()
	trace := obs.NewTrace()
	rec := obs.Multi(metrics, trace)

	const pairs = 6
	// One invariant checker per connection endpoint: under fault injection
	// the continuous flow-control invariants must still hold on both sides.
	checkers := make([]*conformance.FlowChecker, 0, pairs*2)
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		clientCheck := conformance.NewFlowChecker(fmt.Sprintf("pair %d client", i))
		serverCheck := conformance.NewFlowChecker(fmt.Sprintf("pair %d server", i))
		checkers = append(checkers, clientCheck, serverCheck)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			srv := &Server{
				Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
					_, _ = w.Write([]byte("ok:" + r.Path))
				}),
				OriginSet: []string{"a.example", "b.example"},
				Rec:       rec,
				FlowHook:  serverCheck,
			}
			clientEnd, serverEnd := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- srv.ServeConn(serverEnd) }()

			var nc net.Conn = clientEnd
			if i > 0 {
				// Per-pair injector: concurrent goroutines must not share
				// one injector's RNG.
				inj := faults.NewInjector(faults.Plan{ResetProb: 0.4}, int64(100+i))
				nc = faults.NewChaosConn(clientEnd, inj)
			}
			cc, err := NewClientConn(nc, ClientConnOptions{
				Origin:      "a.example",
				ReadTimeout: 2 * time.Second,
				FlowHook:    clientCheck,
			})
			if err != nil {
				_ = serverEnd.Close()
				<-done
				return
			}
			for j := 0; j < 6; j++ {
				if _, err := cc.Get("a.example", "/r"); err != nil {
					break
				}
			}
			_ = cc.Close()
			_ = serverEnd.Close()
			<-done
		}(i)
	}
	wg.Wait()
	assertNoH2Goroutines(t)

	for _, fc := range checkers {
		for _, v := range fc.Check() {
			t.Error(v)
		}
	}

	// Connection counters fire before any fault can interfere.
	if got := metric(metrics, "h2.server.conns"); got != pairs {
		t.Errorf("h2.server.conns = %d, want %d", got, pairs)
	}
	// The clean pair guarantees at least one full request cycle and one
	// ORIGIN frame sent, whatever the chaos pairs suffered.
	if metric(metrics, "h2.server.streams") == 0 {
		t.Error("no server streams recorded")
	}
	if metric(metrics, "h2.server.origin_frames_sent") == 0 {
		t.Error("no ORIGIN frames recorded despite a configured origin set")
	}
	if trace.Len() == 0 {
		t.Error("trace recorded no events")
	}
	// The trace must serialize cleanly even with interleaved emitters.
	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Rank < evs[i-1].Rank ||
			(evs[i].Rank == evs[i-1].Rank && evs[i].Seq < evs[i-1].Seq) {
			t.Fatalf("events out of (rank, seq) order at %d: %+v then %+v", i, evs[i-1], evs[i])
		}
	}
}

// metric reads one counter from m's text rendering (0 if never written).
func metric(m *obs.Metrics, name string) int64 {
	for _, line := range strings.Split(m.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			n, _ := strconv.ParseInt(f[1], 10, 64)
			return n
		}
	}
	return 0
}
