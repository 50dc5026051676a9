package h2

import (
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"respectorigin/internal/hpack"
	"respectorigin/internal/obs"
)

// A Request is a fully received HTTP/2 request.
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string
	Header    []hpack.HeaderField // regular (non-pseudo) fields
	Body      []byte
}

// HeaderValue returns the first value of the named regular header.
func (r *Request) HeaderValue(name string) string {
	for _, f := range r.Header {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// A Handler responds to HTTP/2 requests.
type Handler interface {
	ServeHTTP2(w *ResponseWriter, r *Request)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(w *ResponseWriter, r *Request)

// ServeHTTP2 calls f(w, r).
func (f HandlerFunc) ServeHTTP2(w *ResponseWriter, r *Request) { f(w, r) }

// A Server terminates HTTP/2 connections. The zero value is unusable;
// Handler must be set.
//
// Server implements the missing piece the paper identifies (§5.3): a
// production-style server-side ORIGIN frame. When OriginSet is
// non-empty, the server announces the set on stream 0 immediately after
// its SETTINGS frame, as RFC 8336 §2.2 recommends, so clients learn
// coalescable hostnames before the first response.
type Server struct {
	// Handler receives every request. Required.
	Handler Handler

	// OriginSet is the static origin set advertised on every connection.
	OriginSet []string

	// Authoritative, when non-nil, reports whether this server can
	// authoritatively serve the given :authority. Requests for other
	// hosts receive 421 Misdirected Request, the behaviour described in
	// §2.2 of the paper. When nil every authority is accepted.
	Authoritative func(authority string) bool

	// MaxConcurrentStreams caps simultaneously active streams per
	// connection; 0 means the implementation default of 250.
	MaxConcurrentStreams uint32

	// MaxFrameSize advertises SETTINGS_MAX_FRAME_SIZE; 0 means 16384.
	MaxFrameSize uint32

	// CountersFor, when non-nil, receives the per-connection counters
	// when a connection finishes, for measurement harnesses.
	CountersFor func(ConnCounters)

	// ReadTimeout bounds client silence: it covers the preface read and
	// is re-armed before every frame, so an idle or dead client releases
	// the connection instead of holding it forever. Zero disables.
	ReadTimeout time.Duration

	// WriteTimeout bounds each flush of the write queue toward a client
	// that stopped reading. Zero disables.
	WriteTimeout time.Duration

	// Rec, when non-nil, receives "h2.server.*" counters and
	// connection-level trace events (origin frames sent, GOAWAYs, 421s).
	// Observation only; a nil recorder changes nothing. Set it before
	// the first ServeConn.
	Rec obs.Recorder

	// FlowHook, when non-nil, observes every flow-control transition on
	// each served connection (see FlowOp* constants). Used by the
	// conformance invariant checker; nil changes nothing.
	FlowHook FlowHook
}

// ConnCounters aggregates per-connection observability counters. The
// frame and byte counts are taken at the connection's Framer: every frame
// read and written, and every byte read after the client preface, frame
// headers included.
type ConnCounters struct {
	StreamsOpened int
	FramesRead    int
	FramesWritten int
	BytesRead     int64
	Misdirected   int // 421 responses sent
}

func (s *Server) maxStreams() uint32 {
	if s.MaxConcurrentStreams == 0 {
		return 250
	}
	return s.MaxConcurrentStreams
}

func (s *Server) maxFrameSize() uint32 {
	if s.MaxFrameSize == 0 {
		return minMaxFrameSize
	}
	return s.MaxFrameSize
}

// ServeConn serves one HTTP/2 connection until the peer goes away or a
// protocol error occurs. It returns nil on clean shutdown (EOF or
// GOAWAY exchange) and the fatal error otherwise. However it returns,
// it has flushed what it queued, for at most closeLinger, and closed
// nc exactly once.
func (s *Server) ServeConn(nc net.Conn) error {
	obs.Count(s.Rec, "h2.server.conns", 1)
	sc := &serverConn{srv: s, streams: make(map[uint32]*serverStream), work: make(chan *serverStream)}
	sc.init(nc, s.FlowHook, s.ReadTimeout, s.WriteTimeout)
	defer sc.shutdown() // flush, then close nc, once the counters below are read
	err := sc.serve()
	close(sc.work) // the read loop sends no more: parked workers exit
	// Handler goroutines may still be running: read each count under
	// the lock it is kept under.
	sc.mu.Lock()
	c := sc.counters
	sc.mu.Unlock()
	sc.fr.wmu.Lock()
	c.FramesRead, c.FramesWritten, c.BytesRead = int(sc.fr.framesRead), int(sc.fr.framesWritten), sc.fr.bytesRead
	sc.fr.wmu.Unlock()
	if s.CountersFor != nil {
		s.CountersFor(c)
	}
	if s.Rec != nil {
		obs.Count(s.Rec, "h2.server.streams", int64(c.StreamsOpened))
		obs.Count(s.Rec, "h2.server.frames_read", int64(c.FramesRead))
		obs.Count(s.Rec, "h2.server.frames_written", int64(c.FramesWritten))
		obs.Count(s.Rec, "h2.server.bytes_read", c.BytesRead)
		obs.Count(s.Rec, "h2.server.misdirected_421", int64(c.Misdirected))
	}
	return err
}

type serverConn struct {
	endpoint
	srv *Server

	// respFields is the header list of the response being written;
	// handlers run on their own goroutines, so it is touched only under
	// hwmu.
	respFields []hpack.HeaderField

	// work hands a stream from the read loop to a parked handler worker.
	// idleWorkers counts the workers committed to receiving from it; only
	// workers add to it and only the read loop takes from it, so a
	// positive count always has a worker on its way to the receive.
	work        chan *serverStream
	idleWorkers atomic.Int32

	mu             sync.Mutex
	streams        map[uint32]*serverStream
	lastStreamID   uint32
	activeStreams  uint32
	goAwayReceived bool
	draining       bool // the peer sent GOAWAY(NO_ERROR) with streams in flight

	counters ConnCounters
}

// A serverStream is one request's only object on the server: the
// handler receives pointers to its req and w. It is never reused, since
// a handler may keep its *Request after returning.
type serverStream struct {
	id            uint32
	req           Request
	w             ResponseWriter
	gotEnd        bool // END_STREAM received
	staged        bool // req.Body is pooled staging storage (appendBody)
	authoritative bool // Server.Authoritative's answer, asked on the read loop
}

// maxIdleWorkers is how many handler workers a connection keeps parked
// between requests. A worker that finishes past it exits.
const maxIdleWorkers = 4

func (sc *serverConn) serve() error {
	if err := sc.readPreface(); err != nil {
		return err
	}
	settings := []Setting{
		{settingMaxConcurrentStreams, sc.srv.maxStreams()},
		{settingMaxFrameSize, sc.srv.maxFrameSize()},
		{settingEnablePush, 0},
	}
	if err := sc.fr.writeSettings(settings...); err != nil {
		return err
	}
	sc.fr.setMaxReadFrameSize(sc.srv.maxFrameSize())

	if origins := sc.srv.OriginSet; len(origins) > 0 {
		canon := make([]string, 0, len(origins))
		for _, o := range origins {
			c, err := canonicalOrigin(o)
			if err != nil {
				return fmt.Errorf("h2: bad configured origin %q: %w", o, err)
			}
			canon = append(canon, c)
		}
		if err := sc.fr.writeOrigin(canon); err != nil {
			return err
		}
		obs.Count(sc.srv.Rec, "h2.server.origin_frames_sent", 1)
		obs.Emit(sc.srv.Rec, obs.Event{Kind: obs.KindOriginFrame, N: len(canon), Detail: "sent"})
	}

	return sc.fatal(sc.readLoop(sc))
}

func (sc *serverConn) readPreface() error {
	if d := sc.srv.ReadTimeout; d > 0 {
		_ = sc.nc.SetReadDeadline(time.Now().Add(d))
	}
	buf := make([]byte, len(clientPreface))
	if _, err := io.ReadFull(sc.nc, buf); err != nil {
		return fmt.Errorf("h2: reading client preface: %w", err)
	}
	if string(buf) != clientPreface {
		return connError(errCodeProtocol, "invalid client preface")
	}
	return nil
}

// fatal ends the connection on err, the error that ended the read loop,
// and returns what ServeConn does: nil for a clean end, err otherwise.
// A drain the peer announced with GOAWAY(NO_ERROR) ends clean however
// the transport goes, and EOF is clean only after a GOAWAY: a bare close
// mid-connection (the §6.7 middlebox behaviour) is an abnormal end.
func (sc *serverConn) fatal(err error) error {
	sc.sendFlow.close()
	sc.mu.Lock()
	sawGoAway, draining, last := sc.goAwayReceived, sc.draining, sc.lastStreamID
	sc.mu.Unlock()
	switch {
	case draining, err == io.EOF && sawGoAway:
		return nil
	case err == io.EOF:
		return io.ErrUnexpectedEOF
	}
	if ce, ok := err.(connectionError); ok {
		_ = sc.fr.writeGoAway(last, ce.Code, []byte(ce.Reason))
		_ = sc.shutdown()
	}
	return err
}

// resetStream frees a stream the read loop resets.
func (sc *serverConn) resetStream(se streamErr) { sc.closeStream(se.StreamID) }

// onFrame acts on the frames the endpoint leaves to the server.
func (sc *serverConn) onFrame(f Frame) error {
	switch f := f.(type) {
	case *rstStreamFrame:
		sc.closeStream(f.StreamID)
	case *goAwayFrame:
		// The server reads on to EOF: the client closes its transport
		// after its GOAWAY, and a TLS client's close waits for its
		// close_notify to be read. The send windows stay open only for a
		// graceful drain with responses in flight: closeStream shuts the
		// transport once the last one ends, and draining refuses any new
		// stream meanwhile.
		sc.mu.Lock()
		sc.goAwayReceived = true
		drain := f.ErrCode == errCodeNo && sc.activeStreams > 0
		sc.draining = sc.draining || drain
		sc.mu.Unlock()
		if !drain {
			sc.sendFlow.close()
		}
	case *pushPromiseFrame:
		return connError(errCodeProtocol, "client sent PUSH_PROMISE")
	}
	// A client does not send ORIGIN (RFC 8336 §2), and a server ignores
	// it; PRIORITY is deprecated, and unknown types are ignored (§4.1).
	return nil
}

func (sc *serverConn) onHeaderBlock(meta *metaHeadersFrame) error {
	id := meta.StreamID
	if id%2 == 0 {
		return connError(errCodeProtocol, "client used even stream ID")
	}
	sc.mu.Lock()
	if id <= sc.lastStreamID {
		sc.mu.Unlock()
		return connError(errCodeProtocol, "stream ID not monotonically increasing")
	}
	if sc.draining {
		sc.mu.Unlock()
		// Streams above the GOAWAY watermark are refused; the client
		// retries them elsewhere (RFC 9113 §6.8).
		return streamError(id, errCodeRefusedStream, "connection is draining")
	}
	sc.lastStreamID = id
	if sc.activeStreams >= sc.srv.maxStreams() {
		sc.mu.Unlock()
		return streamError(id, errCodeRefusedStream, "too many concurrent streams")
	}
	st := &serverStream{
		id: id,
		req: Request{
			Method:    meta.pseudoValue("method"),
			Scheme:    meta.pseudoValue("scheme"),
			Authority: meta.pseudoValue("authority"),
			Path:      meta.pseudoValue("path"),
			// meta's fields are the header reader's, reused for the next
			// block; the handler gets its own copy.
			Header: slices.Clone(meta.regularFields()),
		},
		w:      ResponseWriter{sc: sc, streamID: id},
		gotEnd: meta.endStream(),
	}
	sc.streams[id] = st
	sc.activeStreams++
	sc.counters.StreamsOpened++
	sc.mu.Unlock()
	sc.sendFlow.openStream(id)

	if req := &st.req; req.Method == "" || req.Scheme == "" || req.Path == "" {
		return streamError(id, errCodeProtocol, "missing required pseudo-headers")
	}
	if st.gotEnd {
		sc.startHandler(st)
	}
	return nil
}

func (sc *serverConn) onData(f *dataFrame) error {
	if err := sc.chargeData(f); err != nil {
		return err
	}
	sc.mu.Lock()
	st, ok := sc.streams[f.StreamID]
	sc.mu.Unlock()
	if !ok || st.gotEnd {
		return streamError(f.StreamID, errCodeStreamClosed, "DATA on closed stream")
	}
	st.req.Body, st.staged = appendBody(st.req.Body, st.staged, f.Data)
	if err := sc.creditStream(f); err != nil {
		return err
	}
	if f.Flags.has(flagEndStream) {
		st.gotEnd = true
		st.req.Body = finishBody(st.req.Body, st.staged)
		sc.startHandler(st)
	}
	return nil
}

// startHandler runs st's handler on a parked worker, or on a new one
// when none is parked. Authoritative is asked here, on the read loop, so
// a user callback sees no concurrency.
func (sc *serverConn) startHandler(st *serverStream) {
	st.authoritative = sc.srv.Authoritative == nil || st.req.Authority == "" ||
		sc.srv.Authoritative(st.req.Authority)
	if sc.idleWorkers.Load() > 0 {
		sc.idleWorkers.Add(-1)
		sc.work <- st
		return
	}
	go sc.worker(st)
}

// worker answers st, then each stream the read loop hands it, until the
// read loop returns (and closes work) or maxIdleWorkers others are
// parked already. Reusing it keeps the stack a handler has grown.
func (sc *serverConn) worker(st *serverStream) {
	for st != nil && sc.answer(st) {
		st = <-sc.work
	}
}

// answer runs st's handler, ends the stream and frees it, and reports
// whether its worker is to park for the next stream. The worker commits
// to parking before Close queues the stream's END_STREAM, so the read
// loop, which sees a client's next request only after that frame, finds
// it committed and hands the request to it. A handler that exits its
// goroutine commits none.
func (sc *serverConn) answer(st *serverStream) (park bool) {
	w := &st.w
	defer func() {
		_ = w.Close()
		sc.closeStream(st.id)
	}()
	if !st.authoritative {
		sc.mu.Lock()
		sc.counters.Misdirected++
		sc.mu.Unlock()
		obs.Emit(sc.srv.Rec, obs.Event{Kind: obs.KindMisdirected, Host: st.req.Authority})
		w.WriteHeader(421)
	} else {
		sc.srv.Handler.ServeHTTP2(w, &st.req)
	}
	for {
		n := sc.idleWorkers.Load()
		if n >= maxIdleWorkers {
			return false
		}
		if sc.idleWorkers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (sc *serverConn) closeStream(id uint32) {
	if sc.releaseStream(id) {
		_ = sc.shutdown()
	}
}

// releaseStream frees id's concurrency slot and send window, and reports
// whether a graceful shutdown waited on it last: the caller then closes
// the transport once its own last frame is queued.
func (sc *serverConn) releaseStream(id uint32) (drainDone bool) {
	sc.sendFlow.closeStream(id)
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, ok := sc.streams[id]; !ok {
		return false
	}
	delete(sc.streams, id)
	sc.activeStreams--
	return sc.draining && sc.activeStreams == 0
}

// A ResponseWriter sends a response on one stream. It is safe for use by
// a single handler goroutine.
type ResponseWriter struct {
	sc          *serverConn
	streamID    uint32
	wroteHeader bool
	closed      bool
	err         error
}

// WriteHeader sends the response HEADERS with the given status and
// additional fields. It may be called once; later calls are no-ops.
func (w *ResponseWriter) WriteHeader(status int, fields ...hpack.HeaderField) {
	if w.wroteHeader || w.closed {
		return
	}
	w.wroteHeader = true
	sc := w.sc
	sc.hwmu.Lock()
	hf := append(sc.respFields[:0], hpack.HeaderField{Name: ":status", Value: statusValue(status)})
	for _, f := range fields {
		f.Name = strings.ToLower(f.Name)
		hf = append(hf, f)
	}
	sc.respFields = hf
	w.err = sc.hw.writeHeaders(w.streamID, hf, false, sc.peerMaxFrame.Load())
	sc.hwmu.Unlock()
}

// statusValue is the :status value of code. 200 is a constant because
// nearly every response h2-live and TestRoundTripAllocBudget send is one;
// any other code pays for its string.
func statusValue(code int) string {
	if code == 200 {
		return "200"
	}
	return strconv.Itoa(code)
}

// Write sends body bytes, implicitly sending a 200 header first if
// WriteHeader was not called. It honors connection and stream flow
// control and the peer's SETTINGS_MAX_FRAME_SIZE.
func (w *ResponseWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("h2: write on closed stream %d", w.streamID)
	}
	if !w.wroteHeader {
		w.WriteHeader(200)
	}
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.sc.writeData(w.streamID, p, false)
	w.err = err
	return n, err
}

// Close ends the stream. If nothing was written, an empty response is
// sent. Close is idempotent.
func (w *ResponseWriter) Close() error {
	if w.closed {
		return w.err
	}
	if !w.wroteHeader {
		w.WriteHeader(200) // before closed is set, or it writes nothing
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	// Free the slot first: a client that honours MAX_CONCURRENT_STREAMS
	// sends its next HEADERS as soon as it reads END_STREAM.
	drainDone := w.sc.releaseStream(w.streamID)
	w.err = w.sc.fr.WriteData(w.streamID, true, nil)
	if drainDone {
		_ = w.sc.shutdown()
	}
	return w.err
}
