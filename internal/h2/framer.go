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

// ReadFrame reads and parses one frame. It returns ConnectionError for
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
		return nil, connError(ErrCodeFrameSize, fmt.Sprintf("frame of %d bytes exceeds SETTINGS_MAX_FRAME_SIZE", hdr.Length))
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
	return parseFrame(&fr.fc, hdr, payload)
}

// frameCache holds one reusable frame value per type. Returned frames
// already alias the Framer's read buffer and are documented as valid
// only until the next ReadFrame call, so handing back the same struct
// (fully overwritten) makes the steady-state read path allocation-free.
// A nil *frameCache makes every parse function allocate fresh frames.
type frameCache struct {
	data         DataFrame
	headers      HeadersFrame
	priority     PriorityFrame
	rstStream    RSTStreamFrame
	settings     SettingsFrame
	pushPromise  PushPromiseFrame
	ping         PingFrame
	goAway       GoAwayFrame
	windowUpdate WindowUpdateFrame
	continuation ContinuationFrame
	origin       OriginFrame
	unknown      UnknownFrame
}

// The getters allocate only on the nil (uncached) path; keeping the
// composite literal inside the branch is what lets escape analysis keep
// the cached path allocation-free.
func (fc *frameCache) getDataFrame() *DataFrame {
	if fc == nil {
		return &DataFrame{}
	}
	return &fc.data
}

func (fc *frameCache) getHeadersFrame() *HeadersFrame {
	if fc == nil {
		return &HeadersFrame{}
	}
	return &fc.headers
}

func (fc *frameCache) getPriorityFrame() *PriorityFrame {
	if fc == nil {
		return &PriorityFrame{}
	}
	return &fc.priority
}

func (fc *frameCache) getRSTStreamFrame() *RSTStreamFrame {
	if fc == nil {
		return &RSTStreamFrame{}
	}
	return &fc.rstStream
}

func (fc *frameCache) getSettingsFrame() *SettingsFrame {
	if fc == nil {
		return &SettingsFrame{}
	}
	return &fc.settings
}

func (fc *frameCache) getPushPromiseFrame() *PushPromiseFrame {
	if fc == nil {
		return &PushPromiseFrame{}
	}
	return &fc.pushPromise
}

func (fc *frameCache) getPingFrame() *PingFrame {
	if fc == nil {
		return &PingFrame{}
	}
	return &fc.ping
}

func (fc *frameCache) getGoAwayFrame() *GoAwayFrame {
	if fc == nil {
		return &GoAwayFrame{}
	}
	return &fc.goAway
}

func (fc *frameCache) getWindowUpdateFrame() *WindowUpdateFrame {
	if fc == nil {
		return &WindowUpdateFrame{}
	}
	return &fc.windowUpdate
}

func (fc *frameCache) getOriginFrame() *OriginFrame {
	if fc == nil {
		return &OriginFrame{}
	}
	return &fc.origin
}

func parseFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	switch hdr.Type {
	case FrameData:
		return parseDataFrame(fc, hdr, p)
	case FrameHeaders:
		return parseHeadersFrame(fc, hdr, p)
	case FramePriority:
		return parsePriorityFrame(fc, hdr, p)
	case FrameRSTStream:
		return parseRSTStreamFrame(fc, hdr, p)
	case FrameSettings:
		return parseSettingsFrame(fc, hdr, p)
	case FramePushPromise:
		return parsePushPromiseFrame(fc, hdr, p)
	case FramePing:
		return parsePingFrame(fc, hdr, p)
	case FrameGoAway:
		return parseGoAwayFrame(fc, hdr, p)
	case FrameWindowUpdate:
		return parseWindowUpdateFrame(fc, hdr, p)
	case FrameContinuation:
		f := &ContinuationFrame{}
		if fc != nil {
			f = &fc.continuation
		}
		*f = ContinuationFrame{FrameHeader: hdr, BlockFragment: p}
		return f, nil
	case FrameOrigin:
		return parseOriginFrame(fc, hdr, p)
	default:
		f := &UnknownFrame{}
		if fc != nil {
			f = &fc.unknown
		}
		*f = UnknownFrame{FrameHeader: hdr, Payload: p}
		return f, nil
	}
}

// stripPadding removes the §6.1 pad-length octet and trailing padding.
func stripPadding(hdr FrameHeader, p []byte) ([]byte, error) {
	if !hdr.Flags.has(FlagPadded) {
		return p, nil
	}
	if len(p) == 0 {
		return nil, connError(ErrCodeProtocol, "padded frame missing pad length")
	}
	padLen := int(p[0])
	p = p[1:]
	if padLen > len(p) {
		return nil, connError(ErrCodeProtocol, "pad length exceeds payload")
	}
	return p[:len(p)-padLen], nil
}

func parseDataFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, connError(ErrCodeProtocol, "DATA on stream 0")
	}
	data, err := stripPadding(hdr, p)
	if err != nil {
		return nil, err
	}
	f := fc.getDataFrame()
	*f = DataFrame{FrameHeader: hdr, Data: data}
	return f, nil
}

func parseHeadersFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, connError(ErrCodeProtocol, "HEADERS on stream 0")
	}
	p, err := stripPadding(hdr, p)
	if err != nil {
		return nil, err
	}
	f := fc.getHeadersFrame()
	*f = HeadersFrame{FrameHeader: hdr}
	if hdr.Flags.has(FlagPriority) {
		if len(p) < 5 {
			return nil, connError(ErrCodeProtocol, "HEADERS priority fields truncated")
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
		return nil, connError(ErrCodeProtocol, "PRIORITY on stream 0")
	}
	if len(p) != 5 {
		return nil, streamError(hdr.StreamID, ErrCodeFrameSize, "PRIORITY payload must be 5 bytes")
	}
	dep := binary.BigEndian.Uint32(p[:4])
	f := fc.getPriorityFrame()
	*f = PriorityFrame{
		FrameHeader: hdr,
		PriorityParam: PriorityParam{
			StreamDep: dep & (1<<31 - 1),
			Exclusive: dep>>31 == 1,
			Weight:    p[4],
		},
	}
	return f, nil
}

func parseRSTStreamFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID == 0 {
		return nil, connError(ErrCodeProtocol, "RST_STREAM on stream 0")
	}
	if len(p) != 4 {
		return nil, connError(ErrCodeFrameSize, "RST_STREAM payload must be 4 bytes")
	}
	f := fc.getRSTStreamFrame()
	*f = RSTStreamFrame{FrameHeader: hdr, ErrCode: ErrCode(binary.BigEndian.Uint32(p))}
	return f, nil
}

func parseSettingsFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID != 0 {
		return nil, connError(ErrCodeProtocol, "SETTINGS on non-zero stream")
	}
	f := fc.getSettingsFrame()
	settings := f.Settings[:0] // keep the cached frame's slice capacity
	*f = SettingsFrame{FrameHeader: hdr}
	if hdr.Flags.has(FlagAck) {
		if len(p) != 0 {
			return nil, connError(ErrCodeFrameSize, "SETTINGS ack with payload")
		}
		return f, nil
	}
	if len(p)%6 != 0 {
		return nil, connError(ErrCodeFrameSize, "SETTINGS payload not a multiple of 6")
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
		return nil, connError(ErrCodeProtocol, "PUSH_PROMISE on stream 0")
	}
	p, err := stripPadding(hdr, p)
	if err != nil {
		return nil, err
	}
	if len(p) < 4 {
		return nil, connError(ErrCodeFrameSize, "PUSH_PROMISE truncated")
	}
	f := fc.getPushPromiseFrame()
	*f = PushPromiseFrame{
		FrameHeader:   hdr,
		PromiseID:     binary.BigEndian.Uint32(p[:4]) & (1<<31 - 1),
		BlockFragment: p[4:],
	}
	return f, nil
}

func parsePingFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID != 0 {
		return nil, connError(ErrCodeProtocol, "PING on non-zero stream")
	}
	if len(p) != 8 {
		return nil, connError(ErrCodeFrameSize, "PING payload must be 8 bytes")
	}
	f := fc.getPingFrame()
	*f = PingFrame{FrameHeader: hdr}
	copy(f.Data[:], p)
	return f, nil
}

func parseGoAwayFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if hdr.StreamID != 0 {
		return nil, connError(ErrCodeProtocol, "GOAWAY on non-zero stream")
	}
	if len(p) < 8 {
		return nil, connError(ErrCodeFrameSize, "GOAWAY truncated")
	}
	f := fc.getGoAwayFrame()
	*f = GoAwayFrame{
		FrameHeader:  hdr,
		LastStreamID: binary.BigEndian.Uint32(p[:4]) & (1<<31 - 1),
		ErrCode:      ErrCode(binary.BigEndian.Uint32(p[4:8])),
		DebugData:    p[8:],
	}
	return f, nil
}

func parseWindowUpdateFrame(fc *frameCache, hdr FrameHeader, p []byte) (Frame, error) {
	if len(p) != 4 {
		return nil, connError(ErrCodeFrameSize, "WINDOW_UPDATE payload must be 4 bytes")
	}
	inc := binary.BigEndian.Uint32(p) & (1<<31 - 1)
	if inc == 0 {
		// §6.9: zero increment is PROTOCOL_ERROR; stream-level when on
		// a stream, connection-level when on stream 0.
		if hdr.StreamID == 0 {
			return nil, connError(ErrCodeProtocol, "WINDOW_UPDATE increment 0")
		}
		return nil, streamError(hdr.StreamID, ErrCodeProtocol, "WINDOW_UPDATE increment 0")
	}
	f := fc.getWindowUpdateFrame()
	*f = WindowUpdateFrame{FrameHeader: hdr, Increment: inc}
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
	f := fc.getOriginFrame()
	origins := f.Origins[:0] // keep the cached frame's slice capacity
	*f = OriginFrame{FrameHeader: hdr}
	for len(p) > 0 {
		if len(p) < 2 {
			return nil, connError(ErrCodeFrameSize, "ORIGIN entry length truncated")
		}
		n := int(binary.BigEndian.Uint16(p[:2]))
		p = p[2:]
		if len(p) < n {
			return nil, connError(ErrCodeFrameSize, "ORIGIN entry truncated")
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
	fr.wmu.Unlock()
	return err
}

// writeFrame serializes one complete frame from a caller-owned payload.
func (fr *Framer) writeFrame(typ FrameType, flags Flags, streamID uint32, payload []byte) error {
	if len(payload) > maxMaxFrameSize {
		return fmt.Errorf("h2: frame payload %d exceeds protocol maximum", len(payload))
	}
	fr.startWrite(typ, flags, streamID)
	fr.wbuf = append(fr.wbuf, payload...)
	return fr.endWrite()
}

// WriteData writes a DATA frame. The caller is responsible for honoring
// flow control and SETTINGS_MAX_FRAME_SIZE.
func (fr *Framer) WriteData(streamID uint32, endStream bool, data []byte) error {
	if streamID == 0 && !fr.AllowIllegalWrites {
		return fmt.Errorf("h2: DATA on stream 0")
	}
	var flags Flags
	if endStream {
		flags |= FlagEndStream
	}
	fr.startWrite(FrameData, flags, streamID)
	fr.wbuf = append(fr.wbuf, data...)
	return fr.endWrite()
}

// HeadersFrameParam configures writeHeadersFrame.
type HeadersFrameParam struct {
	StreamID      uint32
	BlockFragment []byte
	EndStream     bool
	EndHeaders    bool
	Priority      *PriorityParam
}

// writeHeadersFrame writes a HEADERS frame.
func (fr *Framer) writeHeadersFrame(p HeadersFrameParam) error {
	var flags Flags
	if p.EndStream {
		flags |= FlagEndStream
	}
	if p.EndHeaders {
		flags |= FlagEndHeaders
	}
	if p.Priority != nil {
		flags |= FlagPriority
	}
	fr.startWrite(FrameHeaders, flags, p.StreamID)
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
		flags |= FlagEndHeaders
	}
	fr.startWrite(FrameContinuation, flags, streamID)
	fr.wbuf = append(fr.wbuf, frag...)
	return fr.endWrite()
}

// writeRSTStream writes an RST_STREAM frame.
func (fr *Framer) writeRSTStream(streamID uint32, code ErrCode) error {
	fr.startWrite(FrameRSTStream, 0, streamID)
	fr.wbuf = binary.BigEndian.AppendUint32(fr.wbuf, uint32(code))
	return fr.endWrite()
}

// writeSettings writes a SETTINGS frame with the given parameters.
func (fr *Framer) writeSettings(settings ...Setting) error {
	fr.startWrite(FrameSettings, 0, 0)
	for _, s := range settings {
		fr.wbuf = binary.BigEndian.AppendUint16(fr.wbuf, uint16(s.ID))
		fr.wbuf = binary.BigEndian.AppendUint32(fr.wbuf, s.Val)
	}
	return fr.endWrite()
}

// writeSettingsAck acknowledges the peer's SETTINGS frame.
func (fr *Framer) writeSettingsAck() error {
	fr.startWrite(FrameSettings, FlagAck, 0)
	return fr.endWrite()
}

// writePing writes a PING frame.
func (fr *Framer) writePing(ack bool, data [8]byte) error {
	var flags Flags
	if ack {
		flags |= FlagAck
	}
	fr.startWrite(FramePing, flags, 0)
	fr.wbuf = append(fr.wbuf, data[:]...)
	return fr.endWrite()
}

// writeGoAway writes a GOAWAY frame.
func (fr *Framer) writeGoAway(lastStreamID uint32, code ErrCode, debug []byte) error {
	fr.startWrite(FrameGoAway, 0, 0)
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
	fr.startWrite(FrameWindowUpdate, 0, streamID)
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
	fr.startWrite(FrameOrigin, 0, 0)
	for _, o := range origins {
		fr.wbuf = binary.BigEndian.AppendUint16(fr.wbuf, uint16(len(o)))
		fr.wbuf = append(fr.wbuf, o...)
	}
	return fr.endWrite()
}
