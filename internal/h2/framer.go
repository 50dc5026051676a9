package h2

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"
)

// A Framer reads and writes HTTP/2 frames on an underlying reader and
// writer. Reads must come from a single goroutine; writes are serialized
// internally and may come from many goroutines.
//
// Read frames alias an internal buffer: a frame returned by ReadFrame is
// valid only until the next ReadFrame call.
type Framer struct {
	r    io.Reader
	rbuf []byte
	fc   frameCache

	wmu  sync.Mutex
	w    io.Writer
	wbuf []byte

	// maxReadSize is the largest frame payload this endpoint advertised
	// (SETTINGS_MAX_FRAME_SIZE); larger frames are a FRAME_SIZE_ERROR.
	maxReadSize uint32

	// rdl, when non-nil, gets a fresh read deadline armed before every
	// frame read, bounding how long the peer may stay silent.
	rdl         interface{ SetReadDeadline(time.Time) error }
	readTimeout time.Duration

	// The frames read and the bytes they took, headers included, and the
	// frames written, under wmu since handler goroutines write: the
	// server's ConnCounters.
	framesRead, bytesRead, framesWritten int64

	// AllowIllegalWrites disables write-side validation. It is used by
	// tests and by the non-compliance harness to produce malformed
	// frames on purpose.
	AllowIllegalWrites bool
}

// NewFramer returns a Framer reading from r and writing to w.
func NewFramer(w io.Writer, r io.Reader) *Framer {
	return &Framer{
		r:           r,
		w:           w,
		rbuf:        make([]byte, frameHeaderLen, frameHeaderLen+minMaxFrameSize),
		maxReadSize: minMaxFrameSize,
	}
}

// setMaxReadFrameSize sets the largest payload ReadFrame accepts.
func (fr *Framer) setMaxReadFrameSize(n uint32) {
	if n < minMaxFrameSize {
		n = minMaxFrameSize
	}
	if n > maxMaxFrameSize {
		n = maxMaxFrameSize
	}
	fr.maxReadSize = n
}

// setReadTimeout arms a read deadline of d on c before every subsequent
// ReadFrame: a peer silent for longer than d between frames fails the
// read with a timeout error (a net.Error whose Timeout is true).
// Endpoints running keepalive PINGs must keep d above the ping interval
// or the idle timer fires before the liveness probe does. It must be called
// before the read loop starts; a zero d disarms.
func (fr *Framer) setReadTimeout(c interface{ SetReadDeadline(time.Time) error }, d time.Duration) {
	fr.rdl = c
	fr.readTimeout = d
}

// ReadFrame reads and parses one frame. It returns connectionError for
// protocol violations that must tear down the connection.
func (fr *Framer) ReadFrame() (Frame, error) {
	if fr.rdl != nil && fr.readTimeout > 0 {
		_ = fr.rdl.SetReadDeadline(time.Now().Add(fr.readTimeout))
	}
	hdr, err := readFrameHeader(fr.r, fr.rbuf[:frameHeaderLen])
	if err != nil {
		return nil, err
	}
	if hdr.Length > fr.maxReadSize {
		return nil, connError(errCodeFrameSize, fmt.Sprintf("frame of %d bytes exceeds SETTINGS_MAX_FRAME_SIZE", hdr.Length))
	}
	if cap(fr.rbuf) < int(hdr.Length) {
		// Grow-and-reuse: at least double so a run of growing frames
		// settles after O(log n) allocations, clamped to the advertised
		// maximum so one connection never holds more than it could need.
		newCap := 2 * cap(fr.rbuf)
		if newCap < int(hdr.Length) {
			newCap = int(hdr.Length)
		}
		if limit := int(fr.maxReadSize) + frameHeaderLen; newCap > limit {
			newCap = limit
		}
		putBuf(fr.rbuf)
		fr.rbuf = getBuf(newCap)
	}
	payload := fr.rbuf[:hdr.Length]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	fr.framesRead++
	fr.bytesRead += frameHeaderLen + int64(hdr.Length)
	return parseFrame(&fr.fc, hdr, payload)
}

// frameCache holds one reusable frame value per type. Returned frames
// already alias the Framer's read buffer and are documented as valid
// only until the next ReadFrame call, so handing back the same struct
// (fully overwritten) makes the steady-state read path allocation-free.
type frameCache struct {
	data         dataFrame
	headers      HeadersFrame
	priority     priorityFrame
	rstStream    rstStreamFrame
	settings     settingsFrame
	pushPromise  pushPromiseFrame
	ping         pingFrame
	goAway       goAwayFrame
	windowUpdate windowUpdateFrame
	continuation continuationFrame
	origin       originFrame
	unknown      unknownFrame
}

func parseFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	switch hdr.Type {
	case frameData:
		return parseDataFrame(fc, hdr, p)
	case frameHeaders:
		return parseHeadersFrame(fc, hdr, p)
	case framePriority:
		return parsePriorityFrame(fc, hdr, p)
	case frameRSTStream:
		return parseRSTStreamFrame(fc, hdr, p)
	case frameSettings:
		return parseSettingsFrame(fc, hdr, p)
	case framePushPromise:
		return parsePushPromiseFrame(fc, hdr, p)
	case framePing:
		return parsePingFrame(fc, hdr, p)
	case frameGoAway:
		return parseGoAwayFrame(fc, hdr, p)
	case frameWindowUpdate:
		return parseWindowUpdateFrame(fc, hdr, p)
	case frameContinuation:
		f := &fc.continuation
		*f = continuationFrame{FrameHeader: hdr, BlockFragment: p}
		return f, nil
	case frameOrigin:
		return parseOriginFrame(fc, hdr, p)
	default:
		f := &fc.unknown
		*f = unknownFrame{FrameHeader: hdr}
		return f, nil
	}
}

// stripPadding removes the §6.1 pad-length octet and trailing padding.
func stripPadding(hdr FrameHeader, p []byte) ([]byte, error) {
	if !hdr.Flags.has(flagPadded) {
		return p, nil
	}
	if len(p) == 0 {
		return nil, connError(errCodeProtocol, "padded frame missing pad length")
	}
	padLen := int(p[0])
	p = p[1:]
	if padLen > len(p) {
		return nil, connError(errCodeProtocol, "pad length exceeds payload")
	}
	return p[:len(p)-padLen], nil
}

func parseDataFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, connError(errCodeProtocol, "DATA on stream 0")
	}
	data, err := stripPadding(hdr, p)
	if err != nil {
		return nil, err
	}
	f := &fc.data
	*f = dataFrame{FrameHeader: hdr, Data: data}
	return f, nil
}

func parseHeadersFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, connError(errCodeProtocol, "HEADERS on stream 0")
	}
	p, err := stripPadding(hdr, p)
	if err != nil {
		return nil, err
	}
	f := &fc.headers
	*f = HeadersFrame{FrameHeader: hdr}
	if hdr.Flags.has(flagPriority) {
		if len(p) < 5 {
			return nil, connError(errCodeProtocol, "HEADERS priority fields truncated")
		}
		dep := binary.BigEndian.Uint32(p[:4])
		f.Priority = PriorityParam{
			StreamDep: dep & (1<<31 - 1),
			Exclusive: dep>>31 == 1,
			Weight:    p[4],
		}
		p = p[5:]
	}
	f.BlockFragment = p
	return f, nil
}

func parsePriorityFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, connError(errCodeProtocol, "PRIORITY on stream 0")
	}
	if len(p) != 5 {
		return nil, streamError(hdr.StreamID, errCodeFrameSize, "PRIORITY payload must be 5 bytes")
	}
	dep := binary.BigEndian.Uint32(p[:4])
	f := &fc.priority
	*f = priorityFrame{
		FrameHeader: hdr,
		PriorityParam: PriorityParam{
			StreamDep: dep & (1<<31 - 1),
			Exclusive: dep>>31 == 1,
			Weight:    p[4],
		},
	}
	if f.StreamDep == hdr.StreamID {
		return nil, streamError(hdr.StreamID, errCodeProtocol, "PRIORITY depends on its own stream")
	}
	return f, nil
}

func parseRSTStreamFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, connError(errCodeProtocol, "RST_STREAM on stream 0")
	}
	if len(p) != 4 {
		return nil, connError(errCodeFrameSize, "RST_STREAM payload must be 4 bytes")
	}
	f := &fc.rstStream
	*f = rstStreamFrame{FrameHeader: hdr, ErrCode: ErrCode(binary.BigEndian.Uint32(p))}
	return f, nil
}

func parseSettingsFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID != 0 {
		return nil, connError(errCodeProtocol, "SETTINGS on non-zero stream")
	}
	f := &fc.settings
	settings := f.Settings[:0] // keep the cached frame's slice capacity
	*f = settingsFrame{FrameHeader: hdr}
	if hdr.Flags.has(flagAck) {
		if len(p) != 0 {
			return nil, connError(errCodeFrameSize, "SETTINGS ack with payload")
		}
		return f, nil
	}
	if len(p)%6 != 0 {
		return nil, connError(errCodeFrameSize, "SETTINGS payload not a multiple of 6")
	}
	for i := 0; i < len(p); i += 6 {
		s := Setting{
			ID:  SettingID(binary.BigEndian.Uint16(p[i : i+2])),
			Val: binary.BigEndian.Uint32(p[i+2 : i+6]),
		}
		if err := s.valid(); err != nil {
			return nil, err
		}
		settings = append(settings, s)
	}
	f.Settings = settings
	return f, nil
}

func parsePushPromiseFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, connError(errCodeProtocol, "PUSH_PROMISE on stream 0")
	}
	p, err := stripPadding(hdr, p)
	if err != nil {
		return nil, err
	}
	if len(p) < 4 {
		return nil, connError(errCodeFrameSize, "PUSH_PROMISE truncated")
	}
	f := &fc.pushPromise
	*f = pushPromiseFrame{FrameHeader: hdr}
	return f, nil
}

func parsePingFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID != 0 {
		return nil, connError(errCodeProtocol, "PING on non-zero stream")
	}
	if len(p) != 8 {
		return nil, connError(errCodeFrameSize, "PING payload must be 8 bytes")
	}
	f := &fc.ping
	*f = pingFrame{FrameHeader: hdr}
	copy(f.Data[:], p)
	return f, nil
}

func parseGoAwayFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID != 0 {
		return nil, connError(errCodeProtocol, "GOAWAY on non-zero stream")
	}
	if len(p) < 8 {
		return nil, connError(errCodeFrameSize, "GOAWAY truncated")
	}
	f := &fc.goAway
	*f = goAwayFrame{
		FrameHeader:  hdr,
		LastStreamID: binary.BigEndian.Uint32(p[:4]) & (1<<31 - 1),
		ErrCode:      ErrCode(binary.BigEndian.Uint32(p[4:8])),
		DebugData:    p[8:],
	}
	return f, nil
}

func parseWindowUpdateFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if len(p) != 4 {
		return nil, connError(errCodeFrameSize, "WINDOW_UPDATE payload must be 4 bytes")
	}
	inc := binary.BigEndian.Uint32(p) & (1<<31 - 1)
	if inc == 0 {
		// §6.9: zero increment is PROTOCOL_ERROR; stream-level when on
		// a stream, connection-level when on stream 0.
		if hdr.StreamID == 0 {
			return nil, connError(errCodeProtocol, "WINDOW_UPDATE increment 0")
		}
		return nil, streamError(hdr.StreamID, errCodeProtocol, "WINDOW_UPDATE increment 0")
	}
	f := &fc.windowUpdate
	*f = windowUpdateFrame{FrameHeader: hdr, Increment: inc}
	return f, nil
}

// parseOriginFrame decodes an RFC 8336 ORIGIN frame: a sequence of
// origin entries, each a 16-bit length followed by an ASCII origin.
//
// Per RFC 8336 §2.1 an ORIGIN frame on a non-zero stream or with flags
// set "MUST be ignored"; the connection layer handles that by checking
// the returned header, so parsing stays permissive here. A malformed
// payload, however, is a connection error of type FRAME_SIZE_ERROR.
func parseOriginFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	f := &fc.origin
	origins := f.Origins[:0] // keep the cached frame's slice capacity
	*f = originFrame{FrameHeader: hdr}
	for len(p) > 0 {
		if len(p) < 2 {
			return nil, connError(errCodeFrameSize, "ORIGIN entry length truncated")
		}
		n := int(binary.BigEndian.Uint16(p[:2]))
		p = p[2:]
		if len(p) < n {
			return nil, connError(errCodeFrameSize, "ORIGIN entry truncated")
		}
		origins = append(origins, string(p[:n]))
		p = p[n:]
	}
	f.Origins = origins
	return f, nil
}

// --- Writing ---

// The write path assembles every frame directly into fr.wbuf between
// startWrite and endWrite, so steady-state writes touch no intermediate
// payload slices and stay allocation-free. Validation that can fail must
// run before startWrite: endWrite is the only path that releases the
// write lock.

// startWrite locks the writer and begins a frame with a zero-length
// header; endWrite patches the real length in.
func (fr *Framer) startWrite(typ FrameType, flags Flags, streamID uint32) {
	fr.wmu.Lock()
	fr.wbuf = appendFrameHeader(fr.wbuf[:0], FrameHeader{
		Type: typ, Flags: flags, StreamID: streamID,
	})
}

// endWrite back-patches the payload length, flushes the frame, and
// releases the write lock.
func (fr *Framer) endWrite() error {
	length := len(fr.wbuf) - frameHeaderLen
	if length > maxMaxFrameSize {
		fr.wmu.Unlock()
		return fmt.Errorf("h2: frame payload %d exceeds protocol maximum", length)
	}
	fr.wbuf[0] = byte(length >> 16)
	fr.wbuf[1] = byte(length >> 8)
	fr.wbuf[2] = byte(length)
	_, err := fr.w.Write(fr.wbuf)
	if err == nil {
		fr.framesWritten++
	}
	fr.wmu.Unlock()
	return err
}

// WriteData writes a DATA frame. The caller is responsible for honoring
// flow control and SETTINGS_MAX_FRAME_SIZE.
func (fr *Framer) WriteData(streamID uint32, endStream bool, data []byte) error {
	if streamID == 0 && !fr.AllowIllegalWrites {
		return fmt.Errorf("h2: DATA on stream 0")
	}
	var flags Flags
	if endStream {
		flags |= flagEndStream
	}
	fr.startWrite(frameData, flags, streamID)
	fr.wbuf = append(fr.wbuf, data...)
	return fr.endWrite()
}

// headersFrameParam configures writeHeadersFrame.
type headersFrameParam struct {
	StreamID      uint32
	BlockFragment []byte
	EndStream     bool
	EndHeaders    bool
	Priority      *PriorityParam
}

// writeHeadersFrame writes a HEADERS frame.
func (fr *Framer) writeHeadersFrame(p headersFrameParam) error {
	var flags Flags
	if p.EndStream {
		flags |= flagEndStream
	}
	if p.EndHeaders {
		flags |= flagEndHeaders
	}
	if p.Priority != nil {
		flags |= flagPriority
	}
	fr.startWrite(frameHeaders, flags, p.StreamID)
	if p.Priority != nil {
		dep := p.Priority.StreamDep
		if p.Priority.Exclusive {
			dep |= 1 << 31
		}
		fr.wbuf = binary.BigEndian.AppendUint32(fr.wbuf, dep)
		fr.wbuf = append(fr.wbuf, p.Priority.Weight)
	}
	fr.wbuf = append(fr.wbuf, p.BlockFragment...)
	return fr.endWrite()
}

// writeContinuation writes a CONTINUATION frame.
func (fr *Framer) writeContinuation(streamID uint32, endHeaders bool, frag []byte) error {
	var flags Flags
	if endHeaders {
		flags |= flagEndHeaders
	}
	fr.startWrite(frameContinuation, flags, streamID)
	fr.wbuf = append(fr.wbuf, frag...)
	return fr.endWrite()
}

// writeRSTStream writes an RST_STREAM frame.
func (fr *Framer) writeRSTStream(streamID uint32, code ErrCode) error {
	fr.startWrite(frameRSTStream, 0, streamID)
	fr.wbuf = binary.BigEndian.AppendUint32(fr.wbuf, uint32(code))
	return fr.endWrite()
}

// writeSettings writes a SETTINGS frame with the given parameters.
func (fr *Framer) writeSettings(settings ...Setting) error {
	fr.startWrite(frameSettings, 0, 0)
	for _, s := range settings {
		fr.wbuf = binary.BigEndian.AppendUint16(fr.wbuf, uint16(s.ID))
		fr.wbuf = binary.BigEndian.AppendUint32(fr.wbuf, s.Val)
	}
	return fr.endWrite()
}

// writeSettingsAck acknowledges the peer's SETTINGS frame.
func (fr *Framer) writeSettingsAck() error {
	fr.startWrite(frameSettings, flagAck, 0)
	return fr.endWrite()
}

// writePing writes a PING frame.
func (fr *Framer) writePing(ack bool, data [8]byte) error {
	var flags Flags
	if ack {
		flags |= flagAck
	}
	fr.startWrite(framePing, flags, 0)
	fr.wbuf = append(fr.wbuf, data[:]...)
	return fr.endWrite()
}

// writeGoAway writes a GOAWAY frame.
func (fr *Framer) writeGoAway(lastStreamID uint32, code ErrCode, debug []byte) error {
	fr.startWrite(frameGoAway, 0, 0)
	fr.wbuf = binary.BigEndian.AppendUint32(fr.wbuf, lastStreamID)
	fr.wbuf = binary.BigEndian.AppendUint32(fr.wbuf, uint32(code))
	fr.wbuf = append(fr.wbuf, debug...)
	return fr.endWrite()
}

// writeWindowUpdate writes a WINDOW_UPDATE frame.
func (fr *Framer) writeWindowUpdate(streamID, incr uint32) error {
	if (incr == 0 || incr > maxWindow) && !fr.AllowIllegalWrites {
		return fmt.Errorf("h2: illegal window increment %d", incr)
	}
	fr.startWrite(frameWindowUpdate, 0, streamID)
	fr.wbuf = binary.BigEndian.AppendUint32(fr.wbuf, incr)
	return fr.endWrite()
}

// writeOrigin writes an RFC 8336 ORIGIN frame carrying the given origin
// set on stream 0.
func (fr *Framer) writeOrigin(origins []string) error {
	for _, o := range origins {
		if len(o) > 65535 {
			return fmt.Errorf("h2: origin %q too long for ORIGIN frame", o)
		}
	}
	fr.startWrite(frameOrigin, 0, 0)
	for _, o := range origins {
		fr.wbuf = binary.BigEndian.AppendUint16(fr.wbuf, uint16(len(o)))
		fr.wbuf = append(fr.wbuf, o...)
	}
	return fr.endWrite()
}
