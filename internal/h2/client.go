package h2

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"respectorigin/internal/hpack"
)

// A Response is a fully received HTTP/2 response.
type Response struct {
	Status   int
	Header   []hpack.HeaderField
	Body     []byte
	StreamID uint32
}

// HeaderValue returns the first value of the named regular header.
func (r *Response) HeaderValue(name string) string {
	for _, f := range r.Header {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// ClientConnOptions configures NewClientConn.
type ClientConnOptions struct {
	// Origin is the origin this connection was established for
	// (hostname or https:// origin). It seeds the origin set.
	Origin string

	// VerifyOrigin, when non-nil, reports whether the connection's
	// certificate covers the given hostname. RFC 8336 §2.4 requires
	// clients to use an origin-set member only when the connection is
	// authoritative for it, which in practice means a certificate SAN
	// check. When nil and the conn is a *tls.Conn, the leaf
	// certificate's VerifyHostname is used; otherwise every name in the
	// origin set is trusted (useful for in-memory simulations).
	VerifyOrigin func(host string) bool

	// OnOrigin, when non-nil, is invoked with the contents of every
	// ORIGIN frame accepted on the connection.
	OnOrigin func(origins []string)

	// ReadTimeout bounds peer silence: a fresh read deadline is armed
	// before every frame read, and a connection quiet for longer fails
	// with a timeout error (a net.Error whose Timeout is true). With
	// PingInterval set, ReadTimeout must exceed it or the idle timer
	// fires before the liveness probe. Zero disables.
	ReadTimeout time.Duration

	// WriteTimeout bounds each flush of the write queue, so a peer that
	// stops reading cannot wedge the writer forever. Zero disables.
	WriteTimeout time.Duration

	// PingInterval, when positive, runs a keepalive goroutine that sends
	// a PING every interval and tears the connection down when the ack
	// does not arrive within the interval — the liveness check a browser
	// needs before trusting a pooled connection for coalesced requests.
	PingInterval time.Duration

	// FlowHook, when non-nil, observes every flow-control transition on
	// the connection (see FlowOp* constants). Used by the conformance
	// invariant checker; nil changes nothing.
	FlowHook FlowHook
}

// A ClientConn is the client side of an HTTP/2 connection. Its methods
// are safe for concurrent use; requests on one connection are
// multiplexed over streams.
type ClientConn struct {
	endpoint
	opts ClientConnOptions

	// reqFields is the header list of the request being written; it is
	// touched only under hwmu.
	reqFields []hpack.HeaderField

	mu           sync.Mutex
	nextStreamID uint32
	streams      map[uint32]*clientStream
	closed       bool // no new requests (set by Close, GOAWAY, keepalive failure, read-loop exit)
	connErr      error

	originSet        *OriginSet
	originFramesSeen int

	pingMu   sync.Mutex
	pingWait map[[8]byte]chan struct{}

	readerDone chan struct{}
}

// A clientStream is one request's only object on the client: RoundTrip
// hands the caller a pointer to its resp. Streams are never reused, so
// the caller owns that Response outright.
type clientStream struct {
	id     uint32
	staged bool // resp.Body is pooled staging storage (appendBody)
	resp   Response
	done   sync.WaitGroup // released once, by whichever path ends the stream
	err    error

	// header is where resp.Header starts, so a response with one or two
	// regular fields, as every response this repository serves has,
	// needs no slice of its own; more grow by append.
	header [2]hpack.HeaderField
}

// end records err and releases the stream's waiter. The caller must
// have just removed cs from cc.streams, which is what makes end run
// once per stream.
func (cs *clientStream) end(err error) {
	cs.err = err
	cs.done.Done()
}

// NewClientConn performs the client half of the HTTP/2 connection
// preface on nc and starts the read loop.
func NewClientConn(nc net.Conn, opts ClientConnOptions) (*ClientConn, error) {
	cc := &ClientConn{
		opts:         opts,
		nextStreamID: 1,
		streams:      make(map[uint32]*clientStream),
		originSet:    newOriginSet(),
		pingWait:     make(map[[8]byte]chan struct{}),
		readerDone:   make(chan struct{}),
	}
	cc.init(nc, opts.FlowHook, opts.ReadTimeout, opts.WriteTimeout)
	if opts.Origin != "" {
		cc.originSet.add(opts.Origin)
	}

	// SETTINGS is queued before the read loop starts, so no frame the
	// peer sends can close the transport under it. Queuing only appends
	// to the write pump, so it cannot block on a synchronous transport
	// (net.Pipe) whose peer is writing its own preface.
	_, err := io.WriteString(nc, clientPreface)
	if err == nil {
		err = cc.fr.writeSettings(
			Setting{settingEnablePush, 0},
			Setting{settingMaxFrameSize, minMaxFrameSize},
		)
	}
	if err != nil {
		// The write pump is already running; release it and the conn.
		_ = cc.shutdown()
		return nil, err
	}
	go cc.run()
	if opts.PingInterval > 0 {
		go cc.keepalive()
	}
	return cc, nil
}

// OriginSet returns the connection's origin set: the connection's own
// origin plus any origins advertised by the server via ORIGIN frames.
func (cc *ClientConn) OriginSet() *OriginSet { return cc.originSet }

// OriginFramesSeen reports how many ORIGIN frames were accepted.
func (cc *ClientConn) OriginFramesSeen() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.originFramesSeen
}

// CanRequest reports whether this connection may be coalesced for host:
// the host's https origin must be in the origin set and the connection
// must be authoritative for it (certificate SAN coverage).
func (cc *ClientConn) CanRequest(host string) bool {
	origin, err := canonicalOrigin(host)
	if err != nil {
		return false
	}
	if !cc.originSet.contains(origin) {
		return false
	}
	return cc.verifyHost(originHost(origin))
}

func (cc *ClientConn) verifyHost(host string) bool {
	if cc.opts.VerifyOrigin != nil {
		return cc.opts.VerifyOrigin(host)
	}
	if tc, ok := cc.nc.(*tls.Conn); ok {
		cs := tc.ConnectionState()
		if len(cs.PeerCertificates) == 0 {
			return false
		}
		return cs.PeerCertificates[0].VerifyHostname(host) == nil
	}
	return true
}

// errStreamLimit is the error for a request that would open more
// streams than the peer's SETTINGS_MAX_CONCURRENT_STREAMS allows (RFC
// 9113 §5.1.2); nothing is sent for it.
var errStreamLimit = errors.New("h2: the peer's concurrent stream limit is reached")

// RoundTrip sends req and waits for the complete response.
func (cc *ClientConn) RoundTrip(req *Request) (*Response, error) {
	cs, err := cc.startRequest(req)
	if err != nil {
		return nil, err
	}
	cs.done.Wait()
	if cs.err != nil {
		return nil, cs.err
	}
	cs.resp.StreamID = cs.id
	return &cs.resp, nil
}

// Get issues a simple GET for the given authority and path.
func (cc *ClientConn) Get(authority, path string) (*Response, error) {
	return cc.RoundTrip(&Request{Method: "GET", Scheme: "https", Authority: authority, Path: path})
}

func (cc *ClientConn) startRequest(req *Request) (*clientStream, error) {
	// Hold the header-writer lock from the moment the stream ID is
	// taken until its HEADERS(+CONTINUATION) sequence is written, so
	// HPACK state stays consistent and IDs reach the peer in increasing
	// order (RFC 9113 §5.1.1) however concurrent requests interleave.
	cc.hwmu.Lock()
	cc.mu.Lock()
	if cc.closed {
		err := cc.connErr
		cc.mu.Unlock()
		cc.hwmu.Unlock()
		if err == nil {
			err = errors.New("h2: client connection closed")
		}
		return nil, err
	}
	if uint32(len(cc.streams)) >= cc.peerMaxStreams.Load() {
		cc.mu.Unlock()
		cc.hwmu.Unlock()
		return nil, errStreamLimit
	}
	id := cc.nextStreamID
	cc.nextStreamID += 2
	cs := &clientStream{id: id}
	cs.done.Add(1)
	cc.streams[id] = cs
	cc.mu.Unlock()
	cc.sendFlow.openStream(id)

	fields := append(cc.reqFields[:0],
		hpack.HeaderField{Name: ":method", Value: req.Method},
		hpack.HeaderField{Name: ":scheme", Value: req.Scheme},
	)
	if req.Authority != "" {
		fields = append(fields, hpack.HeaderField{Name: ":authority", Value: req.Authority})
	}
	fields = append(fields, hpack.HeaderField{Name: ":path", Value: req.Path})
	cc.reqFields = append(fields, req.Header...)
	err := cc.hw.writeHeaders(id, cc.reqFields, len(req.Body) == 0, cc.peerMaxFrame.Load())
	cc.hwmu.Unlock()
	if err == nil {
		_, err = cc.writeData(id, req.Body, true)
	}
	if err != nil {
		cc.removeStream(cs, err)
	}
	return cs, err
}

// removeStream ends cs with err unless another path has already ended
// it, and frees its send window.
func (cc *ClientConn) removeStream(cs *clientStream, err error) {
	cc.mu.Lock()
	if _, ok := cc.streams[cs.id]; ok {
		delete(cc.streams, cs.id)
		cs.end(err)
	}
	cc.mu.Unlock()
	cc.sendFlow.closeStream(cs.id)
}

func (cc *ClientConn) finishStream(cs *clientStream) {
	cs.resp.Body = finishBody(cs.resp.Body, cs.staged)
	cc.removeStream(cs, nil)
}

// Close tears down the connection, sending GOAWAY(NO_ERROR) first when
// the connection is still live. After a peer GOAWAY or a fatal error the
// frames stop, but the transport and read loop are still released —
// Close must never leave the socket or its goroutines behind. Whichever
// path closed the transport first, Close returns what closing it
// returned.
func (cc *ClientConn) Close() error {
	cc.mu.Lock()
	wasClosed := cc.closed
	cc.closed = true
	last := cc.nextStreamID - 2
	cc.mu.Unlock()
	if !wasClosed {
		_ = cc.fr.writeGoAway(last, errCodeNo, nil)
	}
	err := cc.shutdown()
	<-cc.readerDone
	return err
}

// sendPing registers and writes a PING, returning the channel its ack
// closes.
func (cc *ClientConn) sendPing(data [8]byte) (chan struct{}, error) {
	ch := make(chan struct{})
	cc.pingMu.Lock()
	if _, dup := cc.pingWait[data]; dup {
		cc.pingMu.Unlock()
		return nil, errors.New("h2: ping with duplicate payload in flight")
	}
	cc.pingWait[data] = ch
	cc.pingMu.Unlock()
	if err := cc.fr.writePing(false, data); err != nil {
		cc.pingMu.Lock()
		delete(cc.pingWait, data)
		cc.pingMu.Unlock()
		return nil, err
	}
	return ch, nil
}

// pingTimeout sends a PING frame and blocks until its acknowledgement
// arrives, the connection fails, or d passes: an ack that does not
// arrive within d is a liveness failure (a plain deadline miss, not a
// transport timeout).
func (cc *ClientConn) pingTimeout(data [8]byte, d time.Duration) error {
	ch, err := cc.sendPing(data)
	if err != nil {
		return err
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ch:
		return nil
	case <-cc.readerDone:
		return errors.New("h2: connection closed before ping ack")
	case <-timer.C:
		cc.pingMu.Lock()
		delete(cc.pingWait, data)
		cc.pingMu.Unlock()
		return fmt.Errorf("h2: no ping ack within %v", d)
	}
}

// keepalivePrefix tags keepalive probe payloads so they never collide
// with caller-issued pingTimeout payloads.
const keepalivePrefix = uint32(0x6b70616c) // "kpal"

// keepalive probes the connection every PingInterval and tears the
// transport down when the peer stops acknowledging — so pooled
// connections held open for coalescing cannot silently die and wedge
// every later request that trusts them.
func (cc *ClientConn) keepalive() {
	ticker := time.NewTicker(cc.opts.PingInterval)
	defer ticker.Stop()
	var seq uint32
	for {
		select {
		case <-cc.readerDone:
			return
		case <-ticker.C:
		}
		seq++
		var data [8]byte
		binary.BigEndian.PutUint32(data[:4], keepalivePrefix)
		binary.BigEndian.PutUint32(data[4:], seq)
		if err := cc.pingTimeout(data, cc.opts.PingInterval); err != nil {
			cc.mu.Lock()
			cc.closed = true
			if cc.connErr == nil {
				cc.connErr = fmt.Errorf("h2: keepalive failed: %w", err)
			}
			cc.mu.Unlock()
			_ = cc.shutdown()
			return
		}
	}
}

// run is the client's read goroutine: it runs the read loop, then ends
// the connection on the error that ended it.
func (cc *ClientConn) run() {
	defer close(cc.readerDone)
	err := cc.readLoop(cc)
	cc.sendFlow.close()
	cc.mu.Lock()
	cc.closed = true
	if cc.connErr == nil {
		cc.connErr = err
	}
	streams := cc.streams
	cc.streams = make(map[uint32]*clientStream)
	cc.mu.Unlock()
	for _, cs := range streams {
		cs.end(err)
	}
	if ce, ok := err.(connectionError); ok {
		_ = cc.fr.writeGoAway(0, ce.Code, []byte(ce.Reason))
	}
	// Whatever ended the read loop ends the connection: the transport is
	// closed here, not left to the caller's Close.
	_ = cc.shutdown()
}

// resetStream ends a stream the read loop resets with its error.
func (cc *ClientConn) resetStream(se streamErr) { cc.failStream(se.StreamID, se) }

// onFrame acts on the frames the endpoint leaves to the client.
func (cc *ClientConn) onFrame(f Frame) error {
	switch f := f.(type) {
	case *pingFrame: // an ack: the endpoint answers the others
		cc.pingMu.Lock()
		if ch, ok := cc.pingWait[f.Data]; ok {
			delete(cc.pingWait, f.Data)
			close(ch)
		}
		cc.pingMu.Unlock()
	case *rstStreamFrame:
		cc.failStream(f.StreamID, streamError(f.StreamID, f.ErrCode, "reset by peer"))
	case *goAwayFrame:
		return cc.onGoAway(f)
	case *originFrame:
		cc.onOrigin(f)
	case *pushPromiseFrame:
		// We advertised ENABLE_PUSH=0; a PUSH_PROMISE is a protocol error.
		return connError(errCodeProtocol, "PUSH_PROMISE with push disabled")
	}
	// PRIORITY and unknown extension frames are ignored (§4.1).
	return nil
}

// onGoAway handles graceful and abrupt shutdown (RFC 9113 §6.8):
// streams above the last-stream-id are failed so callers can retry
// elsewhere; streams at or below it continue to completion. With
// NO_ERROR the connection stays open for those in-flight streams and
// only stops accepting new requests; any other code is fatal.
func (cc *ClientConn) onGoAway(f *goAwayFrame) error {
	gerr := goAwayError{LastStreamID: f.LastStreamID, Code: f.ErrCode, DebugData: string(f.DebugData)}
	cc.mu.Lock()
	cc.closed = true // no new requests
	if cc.connErr == nil {
		cc.connErr = gerr
	}
	var refused []*clientStream
	for id, cs := range cc.streams {
		if id > f.LastStreamID {
			refused = append(refused, cs)
			delete(cc.streams, id)
		}
	}
	cc.mu.Unlock()
	for _, cs := range refused {
		cs.end(gerr)
		cc.sendFlow.closeStream(cs.id)
	}
	if f.ErrCode != errCodeNo {
		return gerr
	}
	return nil // keep reading: in-flight streams will still complete
}

// onOrigin applies RFC 8336 client rules: frames on a non-zero stream
// are ignored, flagged frames' flags are ignored, and clients that do
// not support the extension drop the frame entirely (fail-open).
func (cc *ClientConn) onOrigin(f *originFrame) {
	if f.StreamID != 0 {
		return // §2.1: MUST be ignored
	}
	cc.originSet.replace(f.Origins)
	if cc.opts.Origin != "" {
		cc.originSet.add(cc.opts.Origin)
	}
	cc.mu.Lock()
	cc.originFramesSeen++
	cc.mu.Unlock()
	if cc.opts.OnOrigin != nil {
		cc.opts.OnOrigin(f.Origins)
	}
}

func (cc *ClientConn) onData(f *dataFrame) error {
	if err := cc.chargeData(f); err != nil {
		return err
	}
	cc.mu.Lock()
	cs := cc.streams[f.StreamID]
	cc.mu.Unlock()
	if cs == nil {
		return streamError(f.StreamID, errCodeStreamClosed, "DATA on unknown stream")
	}
	if cs.resp.Status == 0 {
		// A response opens with its HEADERS (RFC 9113 §8.1).
		return streamError(f.StreamID, errCodeProtocol, "DATA before the response HEADERS")
	}
	cs.resp.Body, cs.staged = appendBody(cs.resp.Body, cs.staged, f.Data)
	if err := cc.creditStream(f); err != nil {
		return err
	}
	if f.Flags.has(flagEndStream) {
		cc.finishStream(cs)
	}
	return nil
}

func (cc *ClientConn) onHeaderBlock(meta *metaHeadersFrame) error {
	cc.mu.Lock()
	cs := cc.streams[meta.StreamID]
	cc.mu.Unlock()
	if cs == nil {
		return streamError(meta.StreamID, errCodeStreamClosed, "HEADERS on unknown stream")
	}
	statusStr := meta.pseudoValue("status")
	status, err := strconv.Atoi(statusStr)
	if err != nil {
		return streamError(meta.StreamID, errCodeProtocol, "bad :status "+statusStr)
	}
	cs.resp.Status = status
	if fields := meta.regularFields(); len(fields) > 0 {
		if cs.resp.Header == nil {
			cs.resp.Header = cs.header[:0]
		}
		cs.resp.Header = append(cs.resp.Header, fields...)
	}
	if meta.endStream() {
		cc.finishStream(cs)
	}
	return nil
}

func (cc *ClientConn) failStream(id uint32, err error) {
	cc.mu.Lock()
	cs := cc.streams[id]
	cc.mu.Unlock()
	if cs != nil {
		cc.removeStream(cs, err)
	}
}
