package h2

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"respectorigin/internal/conformance"
	"respectorigin/internal/faults"
)

// leakedH2Goroutines returns the stacks of goroutines still running h2
// code: read loops, writer pumps, keepalive probes, handler goroutines.
// It is a dependency-free goleak equivalent scoped to this package.
func leakedH2Goroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var leaked []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "internal/h2.(*") ||
			strings.Contains(g, "internal/h2.(Server") {
			leaked = append(leaked, g)
		}
	}
	return leaked
}

// assertNoH2Goroutines fails the test if h2 goroutines survive teardown.
// Exits race shutdown, so it retries briefly before declaring a leak.
func assertNoH2Goroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		leaked := leakedH2Goroutines()
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked %d h2 goroutines:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startEchoServer serves one connection with a trivial handler and
// returns the client half plus the server's done channel. Unless the
// caller installed its own FlowHook, the server runs under the
// conformance invariant checker, verified at test cleanup.
func startEchoServer(t *testing.T, srv *Server) (net.Conn, <-chan error) {
	t.Helper()
	if srv.Handler == nil {
		srv.Handler = HandlerFunc(func(w *ResponseWriter, r *Request) {
			_, _ = w.Write([]byte("ok:" + r.Path))
		})
	}
	if srv.FlowHook == nil {
		fc := conformance.NewFlowChecker("server")
		srv.FlowHook = fc
		t.Cleanup(func() {
			for _, v := range fc.Check() {
				t.Error(v)
			}
		})
	}
	clientEnd, serverEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(serverEnd) }()
	return clientEnd, done
}

// TestCloseAfterGoAwayReleasesTransport pins the fix for a leak: after
// the server's graceful GOAWAY marked the connection closed, Close used
// to no-op, leaving the socket open and the read loop plus writer pump
// alive for the life of the process.
func TestCloseAfterGoAwayReleasesTransport(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	peerDone := make(chan struct{})
	go func() { // a server that answers the preface with GOAWAY(NO_ERROR)
		defer close(peerDone)
		if _, err := io.ReadFull(serverEnd, make([]byte, len(clientPreface))); err != nil {
			return
		}
		fr := NewFramer(serverEnd, serverEnd)
		_ = fr.writeSettings()
		_ = fr.writeGoAway(0, errCodeNo, []byte("graceful shutdown"))
		_, _ = io.Copy(io.Discard, serverEnd)
	}()

	cc, err := NewClientConn(clientEnd, ClientConnOptions{Origin: "a.example"})
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	// Wait until the GOAWAY has been observed so Close exercises the
	// already-closed path.
	waitUntil(t, func() bool {
		cc.mu.Lock()
		defer cc.mu.Unlock()
		return cc.closed
	})
	if err := cc.Close(); err != nil && err != net.ErrClosed {
		t.Logf("Close after GOAWAY: %v", err)
	}
	select {
	case <-cc.readerDone:
	case <-time.After(2 * time.Second):
		t.Fatal("read loop still running after Close following GOAWAY")
	}
	<-peerDone
	assertNoH2Goroutines(t)
}

// TestFailedReadLoopClosesTransport: a read loop that a GOAWAY with an
// error code ends closes the transport itself, so the peer reads EOF and
// no h2 goroutine is left, all before the caller's Close.
func TestFailedReadLoopClosesTransport(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	serverEnd.SetDeadline(time.Now().Add(5 * time.Second))
	peerRead := make(chan error, 1)
	go func() { // a server that answers the preface with GOAWAY(PROTOCOL_ERROR)
		if _, err := io.ReadFull(serverEnd, make([]byte, len(clientPreface))); err != nil {
			peerRead <- err
			return
		}
		fr := NewFramer(serverEnd, serverEnd)
		_ = fr.writeSettings()
		_ = fr.writeGoAway(0, errCodeProtocol, []byte("bad client"))
		_, err := io.Copy(io.Discard, serverEnd) // nil once it reads EOF
		peerRead <- err
	}()

	cc, err := NewClientConn(clientEnd, ClientConnOptions{})
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	defer cc.Close()
	if err := <-peerRead; err != nil {
		t.Fatalf("the peer's reads ended in %v, want EOF", err)
	}
	<-cc.readerDone
	assertNoH2Goroutines(t)
}

// isTimeout reports whether err is (or wraps) a network timeout, the
// error a Framer read deadline produces when the peer goes silent.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientReadTimeout verifies the framer's per-frame read deadline: a
// server that goes silent fails pending requests with a timeout error
// instead of hanging them forever.
func TestClientReadTimeout(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	// A black hole: drains client bytes, never answers.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := serverEnd.Read(buf); err != nil {
				return
			}
		}
	}()
	cc, err := NewClientConn(clientEnd, ClientConnOptions{
		Origin:      "a.example",
		ReadTimeout: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	_, err = cc.Get("a.example", "/")
	if err == nil {
		t.Fatal("Get against a silent server succeeded")
	}
	if !isTimeout(err) {
		t.Fatalf("Get error = %v; want a timeout", err)
	}
	_ = cc.Close()
	_ = serverEnd.Close()
	assertNoH2Goroutines(t)
}

// TestKeepaliveDetectsDeadPeer verifies the PING liveness probe: a peer
// that drains frames but never acks tears the connection down within a
// few intervals, failing fast instead of trusting a dead pooled conn.
func TestKeepaliveDetectsDeadPeer(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := serverEnd.Read(buf); err != nil {
				return
			}
		}
	}()
	cc, err := NewClientConn(clientEnd, ClientConnOptions{
		Origin:       "a.example",
		PingInterval: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	select {
	case <-cc.readerDone:
	case <-time.After(3 * time.Second):
		t.Fatal("keepalive never tore down the dead connection")
	}
	if cc.err() == nil {
		t.Fatal("no connection error recorded after keepalive failure")
	}
	_ = cc.Close()
	_ = serverEnd.Close()
	assertNoH2Goroutines(t)
}

// TestPingLivenessAgainstRealServer verifies the happy path: a live
// server acks the keepalive probe and requests keep flowing.
func TestPingLivenessAgainstRealServer(t *testing.T) {
	clientEnd, done := startEchoServer(t, &Server{})
	cc, err := NewClientConn(clientEnd, ClientConnOptions{
		Origin:       "a.example",
		PingInterval: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	if err := cc.pingTimeout([8]byte{1, 2, 3}, time.Second); err != nil {
		t.Fatalf("PingTimeout: %v", err)
	}
	time.Sleep(600 * time.Millisecond) // let two keepalive rounds pass
	if resp, err := cc.Get("a.example", "/x"); err != nil || resp.Status != 200 {
		t.Fatalf("Get after keepalive rounds: resp=%+v err=%v", resp, err)
	}
	_ = cc.Close()
	<-done
	assertNoH2Goroutines(t)
}

// TestServerReadTimeout verifies the server half: a client that sends
// the preface and then goes silent is cut loose by the read deadline.
func TestServerReadTimeout(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	srv := &Server{
		Handler:     HandlerFunc(func(w *ResponseWriter, r *Request) {}),
		ReadTimeout: 80 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(serverEnd) }()
	go func() { // drain server frames so its writer never blocks
		buf := make([]byte, 4096)
		for {
			if _, err := clientEnd.Read(buf); err != nil {
				return
			}
		}
	}()
	if _, err := clientEnd.Write([]byte(clientPreface)); err != nil {
		t.Fatalf("writing preface: %v", err)
	}
	select {
	case err := <-done:
		if !isTimeout(err) {
			t.Fatalf("ServeConn error = %v; want a timeout", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("server kept a silent client past its ReadTimeout")
	}
	_ = clientEnd.Close()
	assertNoH2Goroutines(t)
}

// TestChaosConnResetMidStream runs a real client/server pair over a
// faults.ChaosConn with a certain-reset plan: the injected teardown must
// surface as request errors, never hangs or leaked goroutines.
func TestChaosConnResetMidStream(t *testing.T) {
	inj := faults.NewInjector(faults.Plan{ResetProb: 1}, 7)
	clientCheck := conformance.NewFlowChecker("client")
	serverCheck := conformance.NewFlowChecker("server")
	body := strings.Repeat("x", 32<<10) // larger than the smallest budget
	srv := &Server{
		Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
			_, _ = w.Write([]byte(body))
		}),
		FlowHook: serverCheck,
	}
	clientEnd, serverEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(serverEnd) }()

	chaos := faults.NewChaosConn(clientEnd, inj)
	cc, err := NewClientConn(chaos, ClientConnOptions{
		Origin:      "a.example",
		ReadTimeout: 2 * time.Second,
		FlowHook:    clientCheck,
	})
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	var failed bool
	for i := 0; i < 8 && !failed; i++ {
		if _, err := cc.Get("a.example", "/big"); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("no request failed despite a certain reset plan")
	}
	_ = cc.Close()
	_ = serverEnd.Close()
	<-done
	assertNoH2Goroutines(t)
	if hits, rolls := inj.Counts(faults.KindReset); hits == 0 || rolls == 0 {
		t.Fatalf("injector counters not updated: hits=%d rolls=%d", hits, rolls)
	}
	// Even with the transport torn down mid-stream, the flow-control
	// invariants must have held on both endpoints up to the failure.
	for _, v := range clientCheck.Check() {
		t.Error(v)
	}
	for _, v := range serverCheck.Check() {
		t.Error(v)
	}
}

// TestChaosDeterministicBudget pins ChaosConn's seeded schedule: two
// injectors with the same plan and seed produce identical reset budgets.
func TestChaosDeterministicBudget(t *testing.T) {
	budgets := func(seed int64) []int64 {
		inj := faults.NewInjector(faults.Plan{ResetProb: 0.5}, seed)
		var out []int64
		for i := 0; i < 16; i++ {
			a, b := net.Pipe()
			c := faults.NewChaosConn(a, inj)
			out = append(out, c.Budget())
			_ = a.Close()
			_ = b.Close()
		}
		return out
	}
	x, y := budgets(42), budgets(42)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("budget %d: %d vs %d for same seed", i, x[i], y[i])
		}
	}
	var differs bool
	for _, z := range budgets(43) {
		if z != x[0] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("all budgets identical across seeds; schedule not seeded")
	}
}
