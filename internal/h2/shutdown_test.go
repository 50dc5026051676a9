package h2

import (
	"testing"
	"time"
)

// announceGoAway has the client announce a graceful shutdown,
// GOAWAY(NO_ERROR), on its own connection.
func announceGoAway(t *testing.T, cc *ClientConn) {
	t.Helper()
	if err := cc.fr.writeGoAway(0, errCodeNo, []byte("client shutdown")); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdownDrainsInFlight: a peer GOAWAY(NO_ERROR) during an
// in-flight response lets the response complete, new streams are
// refused, and the server closes the connection cleanly once it drains.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		if r.Path == "/slow" {
			started <- struct{}{}
			<-release
		}
		w.Write([]byte("done " + r.Path))
	})}
	clientEnd, done := startEchoServer(t, srv)
	cc, err := NewClientConn(clientEnd, ClientConnOptions{})
	if err != nil {
		t.Fatal(err)
	}

	respCh := make(chan *Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := cc.Get("example.com", "/slow")
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	<-started

	// Shut down while the response is in flight.
	announceGoAway(t, cc)

	// A new stream after GOAWAY is refused.
	if _, err := cc.Get("example.com", "/new"); err == nil {
		t.Error("new stream accepted during drain")
	}

	// The in-flight response still completes.
	close(release)
	select {
	case resp := <-respCh:
		if resp.Status != 200 || string(resp.Body) != "done /slow" {
			t.Errorf("in-flight response = %d %q", resp.Status, resp.Body)
		}
	case err := <-errCh:
		t.Fatalf("in-flight request failed: %v", err)
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight response never completed")
	}

	// The server exits cleanly once drained.
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("server exit = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("server never exited after drain")
	}
	cc.Close()
	assertNoH2Goroutines(t)
}

// TestServerReadsToEOFAfterClientGoAway: a client's Close sends GOAWAY,
// then closes its transport, and over TLS that close writes a
// close_notify first, which waits up to five seconds for a reader. The
// server reads on to EOF after a GOAWAY, so over net.Pipe + TLS one GET
// and a Close take well under two seconds, and ServeConn returns nil: a
// client that announced its close ends the connection cleanly.
func TestServerReadsToEOFAfterClientGoAway(t *testing.T) {
	cc, served := dialTLSPair(t, []string{"www.drain.test"}, func(w *ResponseWriter, r *Request) {
		w.Write([]byte("drained"))
	})
	if resp, err := cc.Get("www.drain.test", "/"); err != nil || string(resp.Body) != "drained" {
		t.Fatalf("GET: %v", err)
	}
	start := time.Now()
	cc.Close()
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Close took %v", took)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServeConn returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after the client closed")
	}
}
