// Package h2 is a from-scratch implementation of the HTTP/2 framing and
// connection layer (RFC 9113) extended with the ORIGIN frame (RFC 8336).
//
// The package provides:
//
//   - a Framer for reading and writing all standard frame types plus
//     ORIGIN (any other extension frame is read as an UnknownFrame);
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
	ErrCodeNo                 ErrCode = 0x0
	ErrCodeProtocol           ErrCode = 0x1
	ErrCodeInternal           ErrCode = 0x2
	ErrCodeFlowControl        ErrCode = 0x3
	ErrCodeSettingsTimeout    ErrCode = 0x4
	ErrCodeStreamClosed       ErrCode = 0x5
	ErrCodeFrameSize          ErrCode = 0x6
	ErrCodeRefusedStream      ErrCode = 0x7
	ErrCodeCancel             ErrCode = 0x8
	ErrCodeCompression        ErrCode = 0x9
	ErrCodeConnect            ErrCode = 0xa
	ErrCodeEnhanceYourCalm    ErrCode = 0xb
	ErrCodeInadequateSecurity ErrCode = 0xc
	ErrCodeHTTP11Required     ErrCode = 0xd
)

var errCodeNames = map[ErrCode]string{
	ErrCodeNo:                 "NO_ERROR",
	ErrCodeProtocol:           "PROTOCOL_ERROR",
	ErrCodeInternal:           "INTERNAL_ERROR",
	ErrCodeFlowControl:        "FLOW_CONTROL_ERROR",
	ErrCodeSettingsTimeout:    "SETTINGS_TIMEOUT",
	ErrCodeStreamClosed:       "STREAM_CLOSED",
	ErrCodeFrameSize:          "FRAME_SIZE_ERROR",
	ErrCodeRefusedStream:      "REFUSED_STREAM",
	ErrCodeCancel:             "CANCEL",
	ErrCodeCompression:        "COMPRESSION_ERROR",
	ErrCodeConnect:            "CONNECT_ERROR",
	ErrCodeEnhanceYourCalm:    "ENHANCE_YOUR_CALM",
	ErrCodeInadequateSecurity: "INADEQUATE_SECURITY",
	ErrCodeHTTP11Required:     "HTTP_1_1_REQUIRED",
}

func (e ErrCode) String() string {
	if s, ok := errCodeNames[e]; ok {
		return s
	}
	return fmt.Sprintf("unknown error code 0x%x", uint32(e))
}

// ConnectionError terminates the whole connection (RFC 9113 §5.4.1).
type ConnectionError struct {
	Code   ErrCode
	Reason string
}

func (e ConnectionError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("h2: connection error: %v", e.Code)
	}
	return fmt.Sprintf("h2: connection error: %v: %s", e.Code, e.Reason)
}

func connError(code ErrCode, reason string) ConnectionError {
	return ConnectionError{Code: code, Reason: reason}
}

// StreamError terminates a single stream (RFC 9113 §5.4.2).
type StreamError struct {
	StreamID uint32
	Code     ErrCode
	Reason   string
}

func (e StreamError) Error() string {
	return fmt.Sprintf("h2: stream %d error: %v: %s", e.StreamID, e.Code, e.Reason)
}

func streamError(id uint32, code ErrCode, reason string) StreamError {
	return StreamError{StreamID: id, Code: code, Reason: reason}
}

// GoAwayError is returned to request issuers when the peer shut down the
// connection with GOAWAY.
type GoAwayError struct {
	LastStreamID uint32
	Code         ErrCode
	DebugData    string
}

func (e GoAwayError) Error() string {
	return fmt.Sprintf("h2: peer sent GOAWAY (last stream %d, %v, %q)",
		e.LastStreamID, e.Code, e.DebugData)
}
