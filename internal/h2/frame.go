package h2

import (
	"encoding/binary"
	"fmt"
	"io"
)

// A FrameType identifies an HTTP/2 frame type (RFC 9113 §6, RFC 8336).
// Any other type, ALTSVC (RFC 7838) included, is parsed as an
// unknownFrame and ignored (RFC 9113 §5.5).
type FrameType uint8

// Frame types.
const (
	frameData         FrameType = 0x0
	frameHeaders      FrameType = 0x1
	framePriority     FrameType = 0x2
	frameRSTStream    FrameType = 0x3
	frameSettings     FrameType = 0x4
	framePushPromise  FrameType = 0x5
	framePing         FrameType = 0x6
	frameGoAway       FrameType = 0x7
	frameWindowUpdate FrameType = 0x8
	frameContinuation FrameType = 0x9
	frameOrigin       FrameType = 0xc // RFC 8336
)

var frameTypeNames = map[FrameType]string{
	frameData:         "DATA",
	frameHeaders:      "HEADERS",
	framePriority:     "PRIORITY",
	frameRSTStream:    "RST_STREAM",
	frameSettings:     "SETTINGS",
	framePushPromise:  "PUSH_PROMISE",
	framePing:         "PING",
	frameGoAway:       "GOAWAY",
	frameWindowUpdate: "WINDOW_UPDATE",
	frameContinuation: "CONTINUATION",
	frameOrigin:       "ORIGIN",
}

func (t FrameType) String() string {
	if s, ok := frameTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("UNKNOWN_FRAME_TYPE_%d", uint8(t))
}

// Flags is the 8-bit frame flags field.
type Flags uint8

// has reports whether all bits of f are set in fl.
func (fl Flags) has(f Flags) bool { return fl&f == f }

// Frame flags (per-type meanings).
const (
	flagEndStream  Flags = 0x1 // DATA, HEADERS
	flagAck        Flags = 0x1 // SETTINGS, PING
	flagEndHeaders Flags = 0x4 // HEADERS, PUSH_PROMISE, CONTINUATION
	flagPadded     Flags = 0x8 // DATA, HEADERS, PUSH_PROMISE
	flagPriority   Flags = 0x20
)

// Protocol constants from RFC 9113.
const (
	// clientPreface is the fixed connection preface the client sends.
	clientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

	frameHeaderLen = 9

	// minMaxFrameSize and maxMaxFrameSize bound SETTINGS_MAX_FRAME_SIZE.
	minMaxFrameSize = 1 << 14
	maxMaxFrameSize = 1<<24 - 1

	// initialWindowSize is the default flow-control window (§6.9.2).
	initialWindowSize = 65535

	// maxWindow is the maximum flow-control window (§6.9.1).
	maxWindow = 1<<31 - 1
)

// A FrameHeader is the fixed 9-octet header of every frame.
type FrameHeader struct {
	Type     FrameType
	Flags    Flags
	Length   uint32 // 24-bit payload length
	StreamID uint32 // 31-bit stream identifier
}

func (h FrameHeader) String() string {
	return fmt.Sprintf("[%v flags=0x%x stream=%d len=%d]", h.Type, uint8(h.Flags), h.StreamID, h.Length)
}

func readFrameHeader(r io.Reader, buf []byte) (FrameHeader, error) {
	if _, err := io.ReadFull(r, buf[:frameHeaderLen]); err != nil {
		return FrameHeader{}, err
	}
	return FrameHeader{
		Length:   uint32(buf[0])<<16 | uint32(buf[1])<<8 | uint32(buf[2]),
		Type:     FrameType(buf[3]),
		Flags:    Flags(buf[4]),
		StreamID: binary.BigEndian.Uint32(buf[5:9]) & (1<<31 - 1),
	}, nil
}

func appendFrameHeader(dst []byte, h FrameHeader) []byte {
	return append(dst,
		byte(h.Length>>16), byte(h.Length>>8), byte(h.Length),
		byte(h.Type), byte(h.Flags),
		byte(h.StreamID>>24), byte(h.StreamID>>16), byte(h.StreamID>>8), byte(h.StreamID),
	)
}

// A Frame is a decoded HTTP/2 frame.
type Frame interface {
	header() FrameHeader
}

// dataFrame carries request or response bytes (§6.1). Data aliases the
// Framer's read buffer and is valid only until the next ReadFrame call.
type dataFrame struct {
	FrameHeader
	Data []byte
}

// HeadersFrame opens or continues a stream with a header block fragment
// (§6.2). The priority fields are parsed when flagPriority is set.
type HeadersFrame struct {
	FrameHeader
	BlockFragment []byte
	Priority      PriorityParam
}

// endStream reports whether the END_STREAM flag is set.
func (f *HeadersFrame) endStream() bool { return f.Flags.has(flagEndStream) }

// endHeaders reports whether the END_HEADERS flag is set.
func (f *HeadersFrame) endHeaders() bool { return f.Flags.has(flagEndHeaders) }

// PriorityParam are the stream dependency fields of PRIORITY and HEADERS.
type PriorityParam struct {
	StreamDep uint32
	Exclusive bool
	Weight    uint8
}

// priorityFrame carries deprecated stream priority information (§6.3).
type priorityFrame struct {
	FrameHeader
	PriorityParam
}

// rstStreamFrame abruptly terminates a stream (§6.4).
type rstStreamFrame struct {
	FrameHeader
	ErrCode ErrCode
}

// Setting is a single SETTINGS parameter.
type Setting struct {
	ID  SettingID
	Val uint32
}

func (s Setting) String() string { return fmt.Sprintf("%v=%d", s.ID, s.Val) }

// A SettingID identifies a SETTINGS parameter (§6.5.2).
type SettingID uint16

// SETTINGS parameters.
const (
	settingHeaderTableSize      SettingID = 0x1
	settingEnablePush           SettingID = 0x2
	settingMaxConcurrentStreams SettingID = 0x3
	settingInitialWindowSize    SettingID = 0x4
	settingMaxFrameSize         SettingID = 0x5
	settingMaxHeaderListSize    SettingID = 0x6
)

var settingNames = map[SettingID]string{
	settingHeaderTableSize:      "HEADER_TABLE_SIZE",
	settingEnablePush:           "ENABLE_PUSH",
	settingMaxConcurrentStreams: "MAX_CONCURRENT_STREAMS",
	settingInitialWindowSize:    "INITIAL_WINDOW_SIZE",
	settingMaxFrameSize:         "MAX_FRAME_SIZE",
	settingMaxHeaderListSize:    "MAX_HEADER_LIST_SIZE",
}

func (id SettingID) String() string {
	if s, ok := settingNames[id]; ok {
		return s
	}
	return fmt.Sprintf("UNKNOWN_SETTING_%d", uint16(id))
}

// valid checks the §6.5.2 value constraints.
func (s Setting) valid() error {
	switch s.ID {
	case settingEnablePush:
		if s.Val != 0 && s.Val != 1 {
			return connError(errCodeProtocol, "ENABLE_PUSH must be 0 or 1")
		}
	case settingInitialWindowSize:
		if s.Val > maxWindow {
			return connError(errCodeFlowControl, "INITIAL_WINDOW_SIZE above 2^31-1")
		}
	case settingMaxFrameSize:
		if s.Val < minMaxFrameSize || s.Val > maxMaxFrameSize {
			return connError(errCodeProtocol, "MAX_FRAME_SIZE out of range")
		}
	}
	return nil
}

// settingsFrame conveys configuration parameters (§6.5).
type settingsFrame struct {
	FrameHeader
	Settings []Setting
}

// isAck reports whether this is a SETTINGS acknowledgement.
func (f *settingsFrame) isAck() bool { return f.Flags.has(flagAck) }

// pushPromiseFrame announces a server-initiated stream (§6.6).
type pushPromiseFrame struct {
	FrameHeader
}

// pingFrame measures round-trip time or checks liveness (§6.7).
type pingFrame struct {
	FrameHeader
	Data [8]byte
}

// isAck reports whether this is a PING acknowledgement.
func (f *pingFrame) isAck() bool { return f.Flags.has(flagAck) }

// goAwayFrame initiates connection shutdown (§6.8).
type goAwayFrame struct {
	FrameHeader
	LastStreamID uint32
	ErrCode      ErrCode
	DebugData    []byte
}

// windowUpdateFrame implements flow control (§6.9).
type windowUpdateFrame struct {
	FrameHeader
	Increment uint32
}

// continuationFrame continues a header block (§6.10).
type continuationFrame struct {
	FrameHeader
	BlockFragment []byte
}

// endHeaders reports whether the END_HEADERS flag is set.
func (f *continuationFrame) endHeaders() bool { return f.Flags.has(flagEndHeaders) }

// originFrame carries the connection's origin set (RFC 8336 §2).
// It is only valid on stream 0 and carries ASCII origin serializations.
type originFrame struct {
	FrameHeader
	Origins []string
}

// unknownFrame is any frame of a type this implementation does not
// recognize. RFC 9113 §4.1 requires implementations to ignore these.
type unknownFrame struct {
	FrameHeader
}

// header implements the Frame interface for each concrete frame.
func (h FrameHeader) header() FrameHeader { return h }
