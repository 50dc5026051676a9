package h2

import (
	"encoding/binary"
	"fmt"
	"io"
)

// A FrameType identifies an HTTP/2 frame type (RFC 9113 §6, RFC 8336).
// Any other type, ALTSVC (RFC 7838) included, is parsed as an
// UnknownFrame and ignored (RFC 9113 §5.5).
type FrameType uint8

// Frame types.
const (
	FrameData         FrameType = 0x0
	FrameHeaders      FrameType = 0x1
	FramePriority     FrameType = 0x2
	FrameRSTStream    FrameType = 0x3
	FrameSettings     FrameType = 0x4
	FramePushPromise  FrameType = 0x5
	FramePing         FrameType = 0x6
	FrameGoAway       FrameType = 0x7
	FrameWindowUpdate FrameType = 0x8
	FrameContinuation FrameType = 0x9
	FrameOrigin       FrameType = 0xc // RFC 8336
)

var frameTypeNames = map[FrameType]string{
	FrameData:         "DATA",
	FrameHeaders:      "HEADERS",
	FramePriority:     "PRIORITY",
	FrameRSTStream:    "RST_STREAM",
	FrameSettings:     "SETTINGS",
	FramePushPromise:  "PUSH_PROMISE",
	FramePing:         "PING",
	FrameGoAway:       "GOAWAY",
	FrameWindowUpdate: "WINDOW_UPDATE",
	FrameContinuation: "CONTINUATION",
	FrameOrigin:       "ORIGIN",
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
	FlagEndStream  Flags = 0x1 // DATA, HEADERS
	FlagAck        Flags = 0x1 // SETTINGS, PING
	FlagEndHeaders Flags = 0x4 // HEADERS, PUSH_PROMISE, CONTINUATION
	FlagPadded     Flags = 0x8 // DATA, HEADERS, PUSH_PROMISE
	FlagPriority   Flags = 0x20
)

// Protocol constants from RFC 9113.
const (
	// ClientPreface is the fixed connection preface the client sends.
	ClientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

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
	Header() FrameHeader
}

// DataFrame carries request or response bytes (§6.1). Data aliases the
// Framer's read buffer and is valid only until the next ReadFrame call.
type DataFrame struct {
	FrameHeader
	Data []byte
}

// HeadersFrame opens or continues a stream with a header block fragment
// (§6.2). The priority fields are parsed when FlagPriority is set.
type HeadersFrame struct {
	FrameHeader
	BlockFragment []byte
	Priority      PriorityParam
}

// endStream reports whether the END_STREAM flag is set.
func (f *HeadersFrame) endStream() bool { return f.Flags.has(FlagEndStream) }

// endHeaders reports whether the END_HEADERS flag is set.
func (f *HeadersFrame) endHeaders() bool { return f.Flags.has(FlagEndHeaders) }

// PriorityParam are the stream dependency fields of PRIORITY and HEADERS.
type PriorityParam struct {
	StreamDep uint32
	Exclusive bool
	Weight    uint8
}

// PriorityFrame carries deprecated stream priority information (§6.3).
type PriorityFrame struct {
	FrameHeader
	PriorityParam
}

// RSTStreamFrame abruptly terminates a stream (§6.4).
type RSTStreamFrame struct {
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
	SettingHeaderTableSize      SettingID = 0x1
	SettingEnablePush           SettingID = 0x2
	SettingMaxConcurrentStreams SettingID = 0x3
	SettingInitialWindowSize    SettingID = 0x4
	SettingMaxFrameSize         SettingID = 0x5
	SettingMaxHeaderListSize    SettingID = 0x6
)

var settingNames = map[SettingID]string{
	SettingHeaderTableSize:      "HEADER_TABLE_SIZE",
	SettingEnablePush:           "ENABLE_PUSH",
	SettingMaxConcurrentStreams: "MAX_CONCURRENT_STREAMS",
	SettingInitialWindowSize:    "INITIAL_WINDOW_SIZE",
	SettingMaxFrameSize:         "MAX_FRAME_SIZE",
	SettingMaxHeaderListSize:    "MAX_HEADER_LIST_SIZE",
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
	case SettingEnablePush:
		if s.Val != 0 && s.Val != 1 {
			return connError(ErrCodeProtocol, "ENABLE_PUSH must be 0 or 1")
		}
	case SettingInitialWindowSize:
		if s.Val > maxWindow {
			return connError(ErrCodeFlowControl, "INITIAL_WINDOW_SIZE above 2^31-1")
		}
	case SettingMaxFrameSize:
		if s.Val < minMaxFrameSize || s.Val > maxMaxFrameSize {
			return connError(ErrCodeProtocol, "MAX_FRAME_SIZE out of range")
		}
	}
	return nil
}

// SettingsFrame conveys configuration parameters (§6.5).
type SettingsFrame struct {
	FrameHeader
	Settings []Setting
}

// isAck reports whether this is a SETTINGS acknowledgement.
func (f *SettingsFrame) isAck() bool { return f.Flags.has(FlagAck) }

// Value returns the last value for id in the frame.
func (f *SettingsFrame) Value(id SettingID) (uint32, bool) {
	for i := len(f.Settings) - 1; i >= 0; i-- {
		if f.Settings[i].ID == id {
			return f.Settings[i].Val, true
		}
	}
	return 0, false
}

// PushPromiseFrame announces a server-initiated stream (§6.6).
type PushPromiseFrame struct {
	FrameHeader
	PromiseID     uint32
	BlockFragment []byte
}

// PingFrame measures round-trip time or checks liveness (§6.7).
type PingFrame struct {
	FrameHeader
	Data [8]byte
}

// isAck reports whether this is a PING acknowledgement.
func (f *PingFrame) isAck() bool { return f.Flags.has(FlagAck) }

// GoAwayFrame initiates connection shutdown (§6.8).
type GoAwayFrame struct {
	FrameHeader
	LastStreamID uint32
	ErrCode      ErrCode
	DebugData    []byte
}

// WindowUpdateFrame implements flow control (§6.9).
type WindowUpdateFrame struct {
	FrameHeader
	Increment uint32
}

// ContinuationFrame continues a header block (§6.10).
type ContinuationFrame struct {
	FrameHeader
	BlockFragment []byte
}

// endHeaders reports whether the END_HEADERS flag is set.
func (f *ContinuationFrame) endHeaders() bool { return f.Flags.has(FlagEndHeaders) }

// OriginFrame carries the connection's origin set (RFC 8336 §2).
// It is only valid on stream 0 and carries ASCII origin serializations.
type OriginFrame struct {
	FrameHeader
	Origins []string
}

// UnknownFrame is any frame of a type this implementation does not
// recognize. RFC 9113 §4.1 requires implementations to ignore these.
type UnknownFrame struct {
	FrameHeader
	Payload []byte
}

// Header implements the Frame interface for each concrete frame.
func (h FrameHeader) Header() FrameHeader { return h }
