// Package h2 is a from-scratch implementation of the HTTP/2 framing and
// connection layer (RFC 9113) extended with the ORIGIN frame (RFC 8336).
//
// The package provides:
//
//   - a Framer for reading and writing all standard frame types plus
//     ORIGIN (any other extension frame is read as an unknownFrame);
//   - a Server that terminates HTTP/2 connections over any net.Conn and
//     can advertise an origin set on stream 0, the capability the paper
//     found missing from every production web server;
//   - a ClientConn that issues requests, consumes ORIGIN frames, and
//     exposes the connection's authoritative origin set so a connection
//     pool can coalesce requests for additional hostnames.
//
// The implementation is intentionally self-contained (Go standard
// library only) so it can run over crypto/tls connections, net.Pipe
// test connections, or the in-memory network simulator elsewhere in
// this repository.
package h2

import (
	"fmt"
)

// An ErrCode is an HTTP/2 error code from RFC 9113 §7.
type ErrCode uint32

// Error codes defined by RFC 9113 §7.
const (
	errCodeNo                 ErrCode = 0x0
	errCodeProtocol           ErrCode = 0x1
	errCodeInternal           ErrCode = 0x2
	errCodeFlowControl        ErrCode = 0x3
	errCodeSettingsTimeout    ErrCode = 0x4
	errCodeStreamClosed       ErrCode = 0x5
	errCodeFrameSize          ErrCode = 0x6
	errCodeRefusedStream      ErrCode = 0x7
	errCodeCancel             ErrCode = 0x8
	errCodeCompression        ErrCode = 0x9
	errCodeConnect            ErrCode = 0xa
	errCodeEnhanceYourCalm    ErrCode = 0xb
	errCodeInadequateSecurity ErrCode = 0xc
	errCodeHTTP11Required     ErrCode = 0xd
)

var errCodeNames = map[ErrCode]string{
	errCodeNo:                 "NO_ERROR",
	errCodeProtocol:           "PROTOCOL_ERROR",
	errCodeInternal:           "INTERNAL_ERROR",
	errCodeFlowControl:        "FLOW_CONTROL_ERROR",
	errCodeSettingsTimeout:    "SETTINGS_TIMEOUT",
	errCodeStreamClosed:       "STREAM_CLOSED",
	errCodeFrameSize:          "FRAME_SIZE_ERROR",
	errCodeRefusedStream:      "REFUSED_STREAM",
	errCodeCancel:             "CANCEL",
	errCodeCompression:        "COMPRESSION_ERROR",
	errCodeConnect:            "CONNECT_ERROR",
	errCodeEnhanceYourCalm:    "ENHANCE_YOUR_CALM",
	errCodeInadequateSecurity: "INADEQUATE_SECURITY",
	errCodeHTTP11Required:     "HTTP_1_1_REQUIRED",
}

func (e ErrCode) String() string {
	if s, ok := errCodeNames[e]; ok {
		return s
	}
	return fmt.Sprintf("unknown error code 0x%x", uint32(e))
}

// connectionError terminates the whole connection (RFC 9113 §5.4.1).
type connectionError struct {
	Code   ErrCode
	Reason string
}

func (e connectionError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("h2: connection error: %v", e.Code)
	}
	return fmt.Sprintf("h2: connection error: %v: %s", e.Code, e.Reason)
}

func connError(code ErrCode, reason string) connectionError {
	return connectionError{Code: code, Reason: reason}
}

// streamErr terminates a single stream (RFC 9113 §5.4.2).
type streamErr struct {
	StreamID uint32
	Code     ErrCode
	Reason   string
}

func (e streamErr) Error() string {
	return fmt.Sprintf("h2: stream %d error: %v: %s", e.StreamID, e.Code, e.Reason)
}

func streamError(id uint32, code ErrCode, reason string) streamErr {
	return streamErr{StreamID: id, Code: code, Reason: reason}
}

// goAwayError is returned to request issuers when the peer shut down the
// connection with GOAWAY.
type goAwayError struct {
	LastStreamID uint32
	Code         ErrCode
	DebugData    string
}

func (e goAwayError) Error() string {
	return fmt.Sprintf("h2: peer sent GOAWAY (last stream %d, %v, %q)",
		e.LastStreamID, e.Code, e.DebugData)
}
