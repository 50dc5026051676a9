package h2

import (
	"errors"
	"net"
	"sync"
	"time"
)

// asyncWriter decouples frame production from the transport: writes are
// appended to an in-memory queue drained by a single pump goroutine.
//
// This removes a whole class of deadlocks on synchronous transports
// (net.Pipe, the in-memory simulator): the read loop may emit control
// frames (SETTINGS acks, PING acks, WINDOW_UPDATE) without ever blocking
// on the peer's reader. Real kernels provide the equivalent buffering
// for TCP sockets.
//
// The queue is unbounded; connection owners rely on HTTP/2 flow control,
// not transport backpressure, to bound buffered data.
type asyncWriter struct {
	nc net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	err    error
	closed bool
	done   chan struct{}

	// timeout, when positive, is a write deadline armed before every
	// chunk the pump flushes, so a peer that stops reading cannot wedge
	// the pump forever. Close arms its own, closeLinger away, which the
	// pump then leaves in place.
	timeout time.Duration
}

func newAsyncWriter(nc net.Conn, timeout time.Duration) *asyncWriter {
	aw := &asyncWriter{nc: nc, timeout: timeout, done: make(chan struct{}), buf: getBuf(1 << bufPoolMinShift)}
	aw.cond = sync.NewCond(&aw.mu)
	go aw.pump()
	return aw
}

// Write queues p. It returns any error previously reported by the
// underlying writer; the data producing that error may have been queued
// earlier.
func (aw *asyncWriter) Write(p []byte) (int, error) {
	aw.mu.Lock()
	defer aw.mu.Unlock()
	if aw.err != nil {
		return 0, aw.err
	}
	if aw.closed {
		return 0, errors.New("h2: write on closed connection")
	}
	// Grow through the size-class pool so the queue buffer is recycled
	// across connections instead of re-grown from scratch each time.
	if need := len(aw.buf) + len(p); need > cap(aw.buf) {
		nb := getBuf(need)
		nb = append(nb, aw.buf...)
		putBuf(aw.buf)
		aw.buf = nb
	}
	aw.buf = append(aw.buf, p...)
	aw.cond.Signal()
	return len(p), nil
}

// Close stops the pump after draining queued data, for at most
// closeLinger: writes still blocked then fail.
func (aw *asyncWriter) Close() error {
	aw.mu.Lock()
	if !aw.closed {
		aw.closed = true
		_ = aw.nc.SetWriteDeadline(time.Now().Add(closeLinger))
		aw.cond.Signal()
	}
	aw.mu.Unlock()
	<-aw.done
	return nil
}

func (aw *asyncWriter) pump() {
	defer close(aw.done)
	chunk := getBuf(1 << bufPoolMinShift)
	// Once the pump exits, Write refuses all data (err set or closed), so
	// both buffers are dead and can go back to the pool.
	defer func() {
		putBuf(chunk)
		aw.mu.Lock()
		putBuf(aw.buf)
		aw.buf = nil
		aw.mu.Unlock()
	}()
	for {
		aw.mu.Lock()
		for len(aw.buf) == 0 && !aw.closed && aw.err == nil {
			aw.cond.Wait()
		}
		if aw.err != nil || (aw.closed && len(aw.buf) == 0) {
			aw.mu.Unlock()
			return
		}
		chunk, aw.buf = aw.buf, chunk[:0]
		if aw.timeout > 0 && !aw.closed { // under mu: never over Close's
			_ = aw.nc.SetWriteDeadline(time.Now().Add(aw.timeout))
		}
		aw.mu.Unlock()

		if _, err := aw.nc.Write(chunk); err != nil {
			aw.mu.Lock()
			aw.err = err
			aw.mu.Unlock()
			return
		}
	}
}
