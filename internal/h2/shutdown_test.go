package h2

import (
	"io"
	"net"
	"sync/atomic"
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

// closeCounter counts the Close calls on the conn it wraps.
type closeCounter struct {
	net.Conn
	closes atomic.Int32
}

func (c *closeCounter) Close() error {
	c.closes.Add(1)
	return c.Conn.Close()
}

// TestServeConnClosesItsTransportOnce: however a connection ends,
// ServeConn closes the transport it was handed, exactly once: a drain
// the client announced with GOAWAY, whose last response closes the
// transport before ServeConn returns; a bare EOF; a read deadline; and
// a connection error, which closes it after its GOAWAY.
func TestServeConnClosesItsTransportOnce(t *testing.T) {
	cases := []struct {
		name    string
		timeout time.Duration
		wantErr bool
		// client drives the connection from its end; a GET of /slow
		// signals started and waits for release.
		client func(t *testing.T, cn net.Conn, started <-chan struct{}, release chan<- struct{})
	}{
		{name: "goaway drain", client: func(t *testing.T, cn net.Conn, started <-chan struct{}, release chan<- struct{}) {
			cc, err := NewClientConn(cn, ClientConnOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			got := make(chan error, 1)
			go func() {
				_, err := cc.Get("example.com", "/slow")
				got <- err
			}()
			<-started
			announceGoAway(t, cc)
			// The server answers the PING after it has read the GOAWAY.
			acked, err := cc.sendPing([8]byte{1})
			if err != nil {
				t.Fatal(err)
			}
			<-acked
			close(release)
			if err := <-got; err != nil {
				t.Errorf("in-flight GET: %v", err)
			}
		}},
		{name: "bare EOF", wantErr: true, client: func(t *testing.T, cn net.Conn, _ <-chan struct{}, _ chan<- struct{}) {
			greetServer(t, cn)
			cn.Close()
		}},
		{name: "read deadline", timeout: 50 * time.Millisecond, wantErr: true, client: func(t *testing.T, cn net.Conn, _ <-chan struct{}, _ chan<- struct{}) {
			greetServer(t, cn)
			go io.Copy(io.Discard, cn)
		}},
		{name: "connection error", wantErr: true, client: func(t *testing.T, cn net.Conn, _ <-chan struct{}, _ chan<- struct{}) {
			peer := greetServer(t, cn)
			go io.Copy(io.Discard, cn)
			if err := peer.writeContinuation(1, true, nil); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cn, sn := net.Pipe()
			cn.SetDeadline(time.Now().Add(5 * time.Second))
			conn := &closeCounter{Conn: sn}
			started, release := make(chan struct{}, 1), make(chan struct{})
			srv := &Server{
				Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
					if r.Path == "/slow" {
						started <- struct{}{}
						<-release
					}
					w.Write([]byte("ok"))
				}),
				ReadTimeout: tc.timeout,
			}
			served := make(chan error, 1)
			go func() { served <- srv.ServeConn(conn) }()
			tc.client(t, cn, started, release)
			select {
			case err := <-served:
				if (err != nil) != tc.wantErr {
					t.Errorf("ServeConn returned %v; want an error: %v", err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ServeConn did not return")
			}
			if n := conn.closes.Load(); n != 1 {
				t.Errorf("ServeConn closed its transport %d times, want once", n)
			}
			cn.Close()
		})
	}
	assertNoH2Goroutines(t)
}

// greetServer writes the client preface on cn and exchanges SETTINGS
// with the server on its other end.
func greetServer(t *testing.T, cn net.Conn) *Framer {
	t.Helper()
	if _, err := io.WriteString(cn, clientPreface); err != nil {
		t.Fatal(err)
	}
	return greet(t, cn, nil)
}
