package h2

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"respectorigin/internal/hpack"
)

// An endpoint is what the two ends of an HTTP/2 connection share: the
// transport and its write pump, the framer, header coding, flow control
// and the peer's settings. ClientConn and serverConn embed one. Its read
// loop is the only one: it answers SETTINGS, WINDOW_UPDATE and PING
// itself and hands the rest to its side; each side keeps only its
// streams, requests or responses.
type endpoint struct {
	nc net.Conn
	aw *asyncWriter
	fr *Framer

	hwmu sync.Mutex // serializes header encoding and HEADERS/CONTINUATION writes
	hw   headerWriter
	hr   headerReader // read loop only

	sendFlow *sendFlow
	recvFlow *recvFlow

	// The peer's SETTINGS_MAX_FRAME_SIZE and SETTINGS_MAX_CONCURRENT_STREAMS.
	// Atomic, because the read loop sets them while the header writer
	// (under hwmu), writeData and a request's stream-limit check (under
	// the side's own mu) read them.
	peerMaxFrame   atomic.Uint32
	peerMaxStreams atomic.Uint32

	closeOnce sync.Once
	closeErr  error
}

// init sets the endpoint up on nc and starts its write pump. Positive
// timeouts arm a read deadline before every frame read and a write
// deadline before every flush.
func (ep *endpoint) init(nc net.Conn, hook FlowHook, readTimeout, writeTimeout time.Duration) {
	ep.nc = nc
	ep.aw = newAsyncWriter(nc, writeTimeout)
	ep.fr = NewFramer(ep.aw, nc)
	ep.hw = headerWriter{fr: ep.fr, enc: hpack.NewEncoder()}
	ep.hr = headerReader{dec: hpack.NewDecoder()}
	ep.sendFlow, ep.recvFlow = newSendFlow(), newRecvFlow()
	ep.sendFlow.hook, ep.recvFlow.hook = hook, hook
	ep.peerMaxFrame.Store(minMaxFrameSize)
	ep.peerMaxStreams.Store(^uint32(0))
	if readTimeout > 0 {
		ep.fr.setReadTimeout(nc, readTimeout)
	}
}

// A side is the client's or the server's part in the endpoint's read
// loop.
type side interface {
	// onHeaderBlock takes a complete, decoded header block.
	onHeaderBlock(meta *metaHeadersFrame) error
	onData(f *dataFrame) error
	// onFrame takes every other frame the endpoint does not answer
	// itself: RST_STREAM, GOAWAY, ORIGIN, PUSH_PROMISE, a PING ack, and
	// PRIORITY and unknown types, which a side ignores.
	onFrame(f Frame) error
	// resetStream ends a stream locally on a stream error, before the
	// endpoint sends the peer its RST_STREAM.
	resetStream(err streamErr)
}

// readLoop reads frames and acts on each until a read or a connection
// error ends the connection, and returns that error. A stream error
// resets only its stream.
func (ep *endpoint) readLoop(s side) error {
	for {
		f, err := ep.fr.ReadFrame()
		if err == nil {
			err = ep.dispatch(s, f)
		}
		if se, ok := err.(streamErr); ok {
			s.resetStream(se)
			err = ep.fr.writeRSTStream(se.StreamID, se.Code)
		}
		if err != nil {
			return err
		}
	}
}

// dispatch acts on one frame read, or hands it to s.
func (ep *endpoint) dispatch(s side, f Frame) error {
	meta, isBlock, err := ep.headerBlock(f)
	if isBlock {
		if err != nil || meta == nil {
			return err
		}
		return s.onHeaderBlock(meta)
	}
	switch f := f.(type) {
	case *dataFrame:
		return s.onData(f)
	case *settingsFrame:
		return ep.onSettings(f)
	case *windowUpdateFrame:
		return ep.onWindowUpdate(f)
	case *pingFrame:
		if !f.isAck() {
			return ep.fr.writePing(true, f.Data)
		}
	}
	return s.onFrame(f)
}

// closeLinger bounds how long a closing endpoint waits for its queued
// frames, a GOAWAY among them, to reach a peer that reads slowly or not
// at all.
const closeLinger = time.Second

// shutdown flushes the queued frames, for at most closeLinger, and
// closes the transport. Only the first call does: every later one,
// from whichever path races to it, returns what the first returned.
func (ep *endpoint) shutdown() error {
	ep.closeOnce.Do(func() {
		_ = ep.aw.Close()
		ep.closeErr = ep.nc.Close()
	})
	return ep.closeErr
}

// headerBlock feeds f to the header reader when it belongs to a header
// block: a HEADERS frame, or the CONTINUATION an open block waits for,
// in whose place any other frame is a connection error, as is a
// CONTINUATION with no block open (RFC 9113 §6.10). It reports whether
// f was such a frame, and returns the decoded block once it is complete.
func (ep *endpoint) headerBlock(f Frame) (meta *metaHeadersFrame, isBlock bool, err error) {
	if ep.hr.expectingContinuation() {
		cf, ok := f.(*continuationFrame)
		if !ok {
			return nil, true, connError(errCodeProtocol, "expected CONTINUATION")
		}
		meta, err = ep.hr.onContinuation(cf)
		return meta, true, err
	}
	switch f := f.(type) {
	case *HeadersFrame:
		meta, err = ep.hr.onHeaders(f)
		return meta, true, err
	case *continuationFrame:
		return nil, true, connError(errCodeProtocol, "CONTINUATION without HEADERS")
	}
	return nil, false, nil
}

// onSettings applies the peer's SETTINGS and acknowledges them.
func (ep *endpoint) onSettings(f *settingsFrame) error {
	if f.isAck() {
		return nil
	}
	for _, s := range f.Settings {
		switch s.ID {
		case settingInitialWindowSize:
			if !ep.sendFlow.setInitial(int64(s.Val)) {
				return connError(errCodeFlowControl, "initial window change overflows stream window")
			}
		case settingMaxFrameSize:
			ep.peerMaxFrame.Store(s.Val)
		case settingHeaderTableSize:
			ep.hwmu.Lock()
			ep.hw.enc.SetMaxDynamicTableSize(s.Val)
			ep.hwmu.Unlock()
		case settingMaxConcurrentStreams:
			ep.peerMaxStreams.Store(s.Val)
		}
	}
	return ep.fr.writeSettingsAck()
}

// onWindowUpdate credits the peer's WINDOW_UPDATE to the send windows.
func (ep *endpoint) onWindowUpdate(f *windowUpdateFrame) error {
	if ep.sendFlow.add(f.StreamID, int64(f.Increment)) {
		return nil
	}
	if f.StreamID == 0 {
		return connError(errCodeFlowControl, "connection window overflow")
	}
	return streamError(f.StreamID, errCodeFlowControl, "stream window overflow")
}

// chargeData charges a received DATA frame, padding included, to the
// connection's receive window, and replenishes the window with a
// WINDOW_UPDATE once half of it is spent.
func (ep *endpoint) chargeData(f *dataFrame) error {
	inc, ok := ep.recvFlow.consume(int64(f.Length))
	if !ok {
		return connError(errCodeFlowControl, "peer exceeded connection window")
	}
	if inc > 0 {
		return ep.fr.writeWindowUpdate(0, uint32(inc))
	}
	return nil
}

// creditStream returns a delivered DATA frame's bytes, padding included,
// to its stream's window so the peer can keep sending. A frame that
// carries END_STREAM earns none: the peer has closed its side of the
// stream and will send on it no more.
func (ep *endpoint) creditStream(f *dataFrame) error {
	if f.Length == 0 || f.Flags.has(flagEndStream) {
		return nil
	}
	return ep.fr.writeWindowUpdate(f.StreamID, f.Length)
}

// writeData sends p on stream id as DATA frames no larger than the
// peer's SETTINGS_MAX_FRAME_SIZE, each waiting for room in the stream
// and connection windows; with endStream the last one carries
// END_STREAM. It returns the payload bytes written.
func (ep *endpoint) writeData(id uint32, p []byte, endStream bool) (int, error) {
	total := 0
	for len(p) > 0 {
		n := ep.sendFlow.take(id, min(int64(len(p)), int64(ep.peerMaxFrame.Load())))
		if n == 0 {
			return total, fmt.Errorf("h2: stream %d closed while writing", id)
		}
		if err := ep.fr.WriteData(id, endStream && int(n) == len(p), p[:n]); err != nil {
			return total, err
		}
		ep.sendFlow.noteData(id, n)
		total += int(n)
		p = p[n:]
	}
	return total, nil
}
