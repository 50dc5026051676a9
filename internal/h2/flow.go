package h2

import "sync"

// Flow hook op names. A FlowHook receives one event per accepted
// flow-control state transition; rejected operations (window overflow,
// which tears the connection down) emit nothing.
//
// The hook signature deliberately uses only built-in types so that
// external invariant checkers (internal/conformance) can implement it
// without importing this package — which in turn lets this package's own
// tests import the checker without an import cycle.
const (
	// flowOpOpen: stream streamID registered; n is the window it opened
	// with (the current initial window size).
	flowOpOpen = "open"
	// flowOpClose: stream streamID removed.
	flowOpClose = "close"
	// flowOpTake: n bytes reserved for DATA on streamID (debits the
	// stream and connection windows together).
	flowOpTake = "take"
	// flowOpAdd: WINDOW_UPDATE credited n bytes to streamID (0 = the
	// connection window).
	flowOpAdd = "add"
	// flowOpSetInitial: SETTINGS_INITIAL_WINDOW_SIZE changed to n; every
	// open stream window was adjusted by the delta (RFC 9113 §6.9.2).
	flowOpSetInitial = "set_initial"
	// flowOpData: n DATA payload bytes were actually written for
	// streamID, consuming an earlier reservation.
	flowOpData = "data"
	// flowOpRecv: n received DATA payload bytes debited the receive
	// window.
	flowOpRecv = "recv"
	// flowOpRecvReplenish: a WINDOW_UPDATE for n bytes was returned to
	// the peer, re-crediting the receive window.
	flowOpRecvReplenish = "recv_replenish"
)

// A FlowHook observes flow-control transitions for invariant checking.
// Implementations must be safe for concurrent use and must not call back
// into the connection; hooks run with internal locks held. Production
// code leaves it nil, which changes nothing.
type FlowHook interface {
	FlowEvent(op string, streamID uint32, n int64)
}

// sendFlow coordinates send-side flow control for a connection and its
// streams. A single mutex and condition variable cover the connection
// window and all stream windows; writers block in take until both the
// connection and their stream have room.
type sendFlow struct {
	mu      sync.Mutex
	cond    *sync.Cond
	conn    int64            // connection-level send window
	streams map[uint32]int64 // per-stream send windows
	initial int64            // SETTINGS_INITIAL_WINDOW_SIZE from peer
	closed  bool
	hook    FlowHook // observation only; set before concurrent use
}

func newSendFlow() *sendFlow {
	f := &sendFlow{
		conn:    initialWindowSize,
		streams: make(map[uint32]int64),
		initial: initialWindowSize,
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *sendFlow) emit(op string, id uint32, n int64) {
	if f.hook != nil {
		f.hook.FlowEvent(op, id, n)
	}
}

// openStream registers a stream window at the current initial size.
func (f *sendFlow) openStream(id uint32) {
	f.mu.Lock()
	f.streams[id] = f.initial
	f.emit(flowOpOpen, id, f.initial)
	f.mu.Unlock()
}

// closeStream removes a stream and wakes any writer blocked on it.
func (f *sendFlow) closeStream(id uint32) {
	f.mu.Lock()
	if _, ok := f.streams[id]; ok {
		delete(f.streams, id)
		f.emit(flowOpClose, id, 0)
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// close unblocks all writers; subsequent takes return 0.
func (f *sendFlow) close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// add credits the stream window (id != 0) or connection window (id == 0)
// in response to WINDOW_UPDATE. It reports whether the resulting window
// stays within the 2^31-1 protocol bound; on overflow NO state is
// mutated, so the caller may treat the failure as a pure signal and
// escalate it (connection teardown for id 0, RST_STREAM otherwise)
// without the windows having been corrupted first.
func (f *sendFlow) add(id uint32, n int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if id == 0 {
		if f.conn+n > maxWindow {
			return false
		}
		f.conn += n
	} else {
		w, ok := f.streams[id]
		if !ok {
			// WINDOW_UPDATE for a stream already closed: legal per RFC
			// 9113 §5.1 (frames in flight after closure), ignored.
			return true
		}
		if w+n > maxWindow {
			return false
		}
		f.streams[id] = w + n
	}
	f.emit(flowOpAdd, id, n)
	f.cond.Broadcast()
	return true
}

// setInitial applies a SETTINGS_INITIAL_WINDOW_SIZE change, adjusting
// every open stream by the delta (RFC 9113 §6.9.2). It reports whether
// all windows stay within the 2^31-1 bound, validating every stream
// BEFORE mutating any so a failure (a connection error at the caller)
// never leaves the windows half-adjusted. A negative resulting window is
// legal per §6.9.2: the stream simply stays blocked in take until
// WINDOW_UPDATEs bring it positive again.
func (f *sendFlow) setInitial(n int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	delta := n - f.initial
	for _, w := range f.streams {
		if w+delta > maxWindow {
			return false
		}
	}
	f.initial = n
	for id, w := range f.streams {
		f.streams[id] = w + delta
	}
	f.emit(flowOpSetInitial, 0, n)
	f.cond.Broadcast()
	return true
}

// take blocks until it can reserve up to max bytes for stream id,
// returning the number reserved: min(max, stream window, connection
// window), which is always ≥ 1 because take waits while either window
// is zero or negative — it never hands out credit the peer did not
// grant (RFC 9113 §6.9.1). It returns 0 only when max is 0 or the
// stream or connection has closed.
func (f *sendFlow) take(id uint32, max int64) int64 {
	if max == 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return 0
		}
		sw, ok := f.streams[id]
		if !ok {
			return 0
		}
		avail := sw
		if f.conn < avail {
			avail = f.conn
		}
		if avail > 0 {
			n := max
			if n > avail {
				n = avail
			}
			f.conn -= n
			f.streams[id] = sw - n
			f.emit(flowOpTake, id, n)
			return n
		}
		f.cond.Wait()
	}
}

// noteData reports n DATA payload bytes actually written for stream id,
// letting an installed FlowHook tie reservations to bytes on the wire.
func (f *sendFlow) noteData(id uint32, n int64) {
	if f.hook == nil || n == 0 {
		return
	}
	f.mu.Lock()
	f.emit(flowOpData, id, n)
	f.mu.Unlock()
}

// recvFlow tracks receive-side flow control: how many bytes the peer may
// still send, and when to replenish with WINDOW_UPDATE. The connection
// owner calls consume for every DATA payload received and sends updates
// when the returned amounts are positive.
type recvFlow struct {
	mu         sync.Mutex
	connAvail  int64 // bytes peer may still send connection-wide
	connUnsent int64 // consumed bytes not yet returned via WINDOW_UPDATE
	hook       FlowHook
}

func newRecvFlow() *recvFlow {
	return &recvFlow{connAvail: initialWindowSize}
}

// consume records receipt of n payload bytes. It returns the
// connection-level WINDOW_UPDATE increment to send (0 if below the
// replenish threshold) and false if the peer overflowed our window.
func (f *recvFlow) consume(n int64) (connInc int64, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n > f.connAvail {
		return 0, false
	}
	f.connAvail -= n
	f.connUnsent += n
	if f.hook != nil && n > 0 {
		f.hook.FlowEvent(flowOpRecv, 0, n)
	}
	// Replenish once half the window is consumed, amortizing updates.
	if f.connUnsent >= initialWindowSize/2 {
		inc := f.connUnsent
		f.connUnsent = 0
		f.connAvail += inc
		if f.hook != nil {
			f.hook.FlowEvent(flowOpRecvReplenish, 0, inc)
		}
		return inc, true
	}
	return 0, true
}
