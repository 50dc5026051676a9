package conformance_test

import (
	"bytes"
	"net"
	"testing"

	"respectorigin/internal/conformance"
	"respectorigin/internal/h2"
)

// TestFlowCheckerOnLiveConnection runs the invariant checker as the
// FlowHook of both endpoints of a real h2 connection pushing bodies in
// both directions, and requires strict byte conservation: every reserved
// flow-control byte became a DATA byte on the wire.
func TestFlowCheckerOnLiveConnection(t *testing.T) {
	clientCheck := conformance.NewFlowChecker("client")
	serverCheck := conformance.NewFlowChecker("server")

	respBody := bytes.Repeat([]byte("origin!"), 9000) // 63000 B: spans frames
	srv := &h2.Server{
		Handler: h2.HandlerFunc(func(w *h2.ResponseWriter, r *h2.Request) {
			_, _ = w.Write(respBody)
		}),
		FlowHook: serverCheck,
	}
	clientEnd, serverEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(serverEnd) }()

	cc, err := h2.NewClientConn(clientEnd, h2.ClientConnOptions{
		Origin:   "a.example",
		FlowHook: clientCheck,
	})
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	reqBody := bytes.Repeat([]byte("payload."), 5000) // 40000 B upload
	for i := 0; i < 3; i++ {
		resp, err := cc.RoundTrip(&h2.Request{
			Method: "POST", Scheme: "https", Authority: "a.example", Path: "/up",
			Body: reqBody,
		})
		if err != nil {
			t.Fatalf("RoundTrip %d: %v", i, err)
		}
		if !bytes.Equal(resp.Body, respBody) {
			t.Fatalf("RoundTrip %d: body %d bytes, want %d", i, len(resp.Body), len(respBody))
		}
	}
	_ = cc.Close()
	<-done

	for _, v := range clientCheck.CheckConservation() {
		t.Error(v)
	}
	for _, v := range serverCheck.CheckConservation() {
		t.Error(v)
	}
}

// TestReplayDeterminismSmall cross-checks a small seeded crawl at three
// worker counts: corpus, trace, and report must be byte-identical. It
// is cmd/replaycheck's default invocation (-sites 400 -seed 1 -workers
// 1,4,16 -repeats 2), the corpus the replay golden pins; a -race build
// runs it at 120 sites (replaySites).
func TestReplayDeterminismSmall(t *testing.T) {
	divs, err := conformance.RunReplay(conformance.ReplayConfig{
		Sites:   replaySites,
		Seed:    1,
		Workers: []int{1, 4, 16},
		Repeats: 2,
	})
	if err != nil {
		t.Fatalf("RunReplay: %v", err)
	}
	for _, d := range divs {
		t.Error(d.String())
	}
}
