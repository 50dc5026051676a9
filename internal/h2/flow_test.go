package h2

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// --- satellite: add/setInitial must be atomic on overflow failure ---

// TestAddConnOverflowAtomic pins the partial-mutation bug: add used to
// credit f.conn before noticing the 2^31-1 overflow, so the "rejected"
// WINDOW_UPDATE still corrupted the window the connection then kept
// using while tearing down.
func TestAddConnOverflowAtomic(t *testing.T) {
	f := newSendFlow()
	if !f.add(0, maxWindow-initialWindowSize) {
		t.Fatal("add to exactly maxWindow rejected")
	}
	if f.conn != maxWindow {
		t.Fatalf("conn window = %d, want %d", f.conn, int64(maxWindow))
	}
	if f.add(0, 1) {
		t.Fatal("add past maxWindow accepted")
	}
	if f.conn != maxWindow {
		t.Errorf("rejected add mutated conn window: %d, want %d", f.conn, int64(maxWindow))
	}
}

func TestAddStreamOverflowAtomic(t *testing.T) {
	f := newSendFlow()
	f.openStream(1)
	if !f.add(1, maxWindow-initialWindowSize) {
		t.Fatal("add to exactly maxWindow rejected")
	}
	if f.add(1, 1) {
		t.Fatal("add past maxWindow accepted")
	}
	if got := f.streams[1]; got != maxWindow {
		t.Errorf("rejected add mutated stream window: %d, want %d", got, int64(maxWindow))
	}
	if f.conn != initialWindowSize {
		t.Errorf("stream-level add touched conn window: %d", f.conn)
	}
}

// TestAddUnknownStreamIgnored: WINDOW_UPDATE racing stream closure is
// legal (RFC 9113 §5.1) and must not be treated as an error.
func TestAddUnknownStreamIgnored(t *testing.T) {
	f := newSendFlow()
	if !f.add(7, 100) {
		t.Error("WINDOW_UPDATE for closed stream reported as overflow")
	}
}

// TestSetInitialOverflowAtomic: with several open streams, a
// SETTINGS_INITIAL_WINDOW_SIZE change that overflows ANY stream must
// leave EVERY stream (and the initial value) untouched. The old code
// adjusted streams in map order and bailed mid-loop.
func TestSetInitialOverflowAtomic(t *testing.T) {
	f := newSendFlow()
	f.openStream(1)
	f.openStream(3)
	// Push stream 1 to the ceiling so any positive delta overflows it.
	if !f.add(1, maxWindow-initialWindowSize) {
		t.Fatal("setup add rejected")
	}
	if f.setInitial(initialWindowSize + 10) {
		t.Fatal("overflowing setInitial accepted")
	}
	if got := f.streams[1]; got != maxWindow {
		t.Errorf("stream 1 window = %d after rejected setInitial, want %d", got, int64(maxWindow))
	}
	if got := f.streams[3]; got != initialWindowSize {
		t.Errorf("stream 3 window = %d after rejected setInitial, want %d (partial mutation)", got, int64(initialWindowSize))
	}
	if f.initial != initialWindowSize {
		t.Errorf("initial = %d after rejected setInitial, want %d", f.initial, int64(initialWindowSize))
	}
}

// TestSetInitialNegativeThenUnblock exercises RFC 9113 §6.9.2: shrinking
// SETTINGS_INITIAL_WINDOW_SIZE may drive an open stream's window
// negative; the stream must stay blocked (not error) until enough
// WINDOW_UPDATE credit arrives to bring it positive again.
func TestSetInitialNegativeThenUnblock(t *testing.T) {
	f := newSendFlow()
	f.openStream(1)
	if n := f.take(1, 1000); n != 1000 {
		t.Fatalf("take = %d, want 1000", n)
	}
	if !f.setInitial(0) {
		t.Fatal("shrinking setInitial rejected")
	}
	if got := f.streams[1]; got != -1000 {
		t.Fatalf("stream window = %d after shrink, want -1000", got)
	}

	got := make(chan int64, 1)
	go func() { got <- f.take(1, 1000) }()
	select {
	case n := <-got:
		t.Fatalf("take returned %d from a negative window", n)
	case <-time.After(50 * time.Millisecond):
	}
	// 1500 of credit leaves the window at +500; the blocked take must wake
	// and reserve exactly that.
	if !f.add(1, 1500) {
		t.Fatal("unblocking add rejected")
	}
	select {
	case n := <-got:
		if n != 500 {
			t.Errorf("take after unblock = %d, want 500", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("take still blocked after window went positive")
	}
	if got := f.streams[1]; got != 0 {
		t.Errorf("stream window = %d after unblocked take, want 0", got)
	}
}

// --- satellite: take semantics audit (§6.9/§6.9.1) ---

// TestTakeNeverOverReserves: take hands out min(max, stream window,
// connection window) and therefore never drives a window negative — it
// must not invent the "at least 1 byte" the old doc comment promised
// when the peer has granted nothing.
func TestTakeNeverOverReserves(t *testing.T) {
	f := newSendFlow()
	f.openStream(1)
	if n := f.take(1, maxWindow); n != initialWindowSize {
		t.Fatalf("take(maxWindow) = %d, want the full window %d", n, int64(initialWindowSize))
	}
	if f.streams[1] != 0 || f.conn != 0 {
		t.Fatalf("windows after draining take: stream=%d conn=%d, want 0,0", f.streams[1], f.conn)
	}
	// Both windows empty: a further take must block, not return 1.
	got := make(chan int64, 1)
	go func() { got <- f.take(1, 1) }()
	select {
	case n := <-got:
		t.Fatalf("take on empty window returned %d", n)
	case <-time.After(50 * time.Millisecond):
	}
	f.close()
	if n := <-got; n != 0 {
		t.Errorf("take after close = %d, want 0", n)
	}
}

// TestTakeConnWindowLimits: the connection window caps takes across
// streams (§6.9.1: both windows must have room).
func TestTakeConnWindowLimits(t *testing.T) {
	f := newSendFlow()
	f.openStream(1)
	f.openStream(3)
	if !f.add(1, 1000) || !f.add(3, 1000) {
		t.Fatal("setup add rejected")
	}
	if n := f.take(1, initialWindowSize); n != initialWindowSize {
		t.Fatalf("first take = %d, want %d", n, int64(initialWindowSize))
	}
	// Connection window is now 0 even though stream 3 has credit.
	got := make(chan int64, 1)
	go func() { got <- f.take(3, 100) }()
	select {
	case n := <-got:
		t.Fatalf("take succeeded (%d) with empty connection window", n)
	case <-time.After(50 * time.Millisecond):
	}
	if !f.add(0, 40) {
		t.Fatal("conn add rejected")
	}
	if n := <-got; n != 40 {
		t.Errorf("take after conn credit = %d, want 40 (conn-window capped)", n)
	}
}

func TestTakeZeroMaxAndClosedStream(t *testing.T) {
	f := newSendFlow()
	f.openStream(1)
	if n := f.take(1, 0); n != 0 {
		t.Errorf("take(max=0) = %d, want 0", n)
	}
	f.closeStream(1)
	if n := f.take(1, 10); n != 0 {
		t.Errorf("take on closed stream = %d, want 0", n)
	}
}

// --- satellite: zero-increment WINDOW_UPDATE is PROTOCOL_ERROR (§6.9.1) ---

func TestZeroIncrementWindowUpdateParse(t *testing.T) {
	zero := []byte{0, 0, 0, 0}
	_, err := parseWindowUpdateFrame(new(frameCache), FrameHeader{Type: frameWindowUpdate, StreamID: 0, Length: 4}, zero)
	var ce connectionError
	if !errors.As(err, &ce) || ce.Code != errCodeProtocol {
		t.Errorf("stream-0 zero increment: err = %v, want connection PROTOCOL_ERROR", err)
	}
	_, err = parseWindowUpdateFrame(new(frameCache), FrameHeader{Type: frameWindowUpdate, StreamID: 3, Length: 4}, zero)
	var se streamErr
	if !errors.As(err, &se) || se.Code != errCodeProtocol || se.StreamID != 3 {
		t.Errorf("stream-3 zero increment: err = %v, want stream 3 PROTOCOL_ERROR", err)
	}
}

// TestZeroIncrementWindowUpdateTeardown drives the zero-increment case
// end to end: a raw fake server completes the h2 handshake, then sends
// WINDOW_UPDATE(stream 0, increment 0). The client must fail the whole
// connection with a protocol error rather than ignore the frame or hang.
func TestZeroIncrementWindowUpdateTeardown(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			preface := make([]byte, len(clientPreface))
			if _, err := io.ReadFull(serverEnd, preface); err != nil {
				return err
			}
			fr := NewFramer(serverEnd, serverEnd)
			fr.AllowIllegalWrites = true
			if err := fr.writeSettings(); err != nil {
				return err
			}
			if err := fr.writeWindowUpdate(0, 0); err != nil {
				return err
			}
			// Drain until the client tears the transport down.
			for {
				if _, err := fr.ReadFrame(); err != nil {
					return nil
				}
			}
		}()
	}()

	cc, err := NewClientConn(clientEnd, ClientConnOptions{Origin: "a.example"})
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	defer cc.Close()
	waitUntil(t, func() bool { return cc.err() != nil })
	var ce connectionError
	if err := cc.err(); !errors.As(err, &ce) || ce.Code != errCodeProtocol {
		t.Errorf("connection error = %v, want PROTOCOL_ERROR", err)
	}
	_ = cc.Close()
	if err := <-srvErr; err != nil {
		t.Fatalf("fake server: %v", err)
	}
	assertNoH2Goroutines(t)
}
