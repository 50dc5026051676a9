package browser

import (
	"fmt"

	"respectorigin/internal/obs"
)

// Protocol selects the application protocol a browser speaks when it
// opens connections, and therefore which transport costs a connection
// setup pays and which warm-path state it may redeem:
//
//   - ProtoH1: HTTP/1.1 over TLS/TCP. Connections are per-host
//     keep-alive only — no cross-hostname coalescing, since there is no
//     multiplexed connection for a second origin to ride.
//   - ProtoH2: HTTP/2 over TLS/TCP, the paper's baseline. Coalescing
//     follows the configured Policy (IP-based or ORIGIN-frame).
//   - ProtoH3: HTTP/3 over QUIC. Coalescing follows the same
//     ORIGIN-equivalent SAN rules as h2, but connection setup pays QUIC
//     handshake costs instead of TCP+TLS: a combined 1-RTT handshake,
//     0-RTT when a session ticket and an address-validation token are
//     both on hand, and an extra Retry round trip when no token covers
//     the server (the shared-address-validation cost model).
//
// The zero value is ProtoH2 so every pre-protocol call site keeps its
// historical behaviour byte for byte.
type Protocol int

// Protocols, zero value first.
const (
	ProtoH2 Protocol = iota // historical default: HTTP/2 over TLS/TCP
	ProtoH1                 // HTTP/1.1 over TLS/TCP, keep-alive only
	ProtoH3                 // HTTP/3 over QUIC
)

// Protocols lists every protocol in sweep order (h1, h2, h3).
var Protocols = []Protocol{ProtoH1, ProtoH2, ProtoH3}

func (p Protocol) String() string {
	switch p {
	case ProtoH1:
		return "h1"
	case ProtoH2:
		return "h2"
	case ProtoH3:
		return "h3"
	default:
		return fmt.Sprintf("proto(%d)", int(p))
	}
}

// Wire returns the protocol's warm-state key (1, 2, or 3) — the value
// the cache layer keys session tickets and address-validation tokens
// by, so state minted under one protocol can never resume a session
// under another.
func (p Protocol) Wire() int {
	switch p {
	case ProtoH1:
		return 1
	case ProtoH3:
		return 3
	default:
		return 2
	}
}

// ParseProtocol parses the -proto flag values "h1", "h2" and "h3".
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "h1":
		return ProtoH1, nil
	case "h2":
		return ProtoH2, nil
	case "h3":
		return ProtoH3, nil
	default:
		return ProtoH2, fmt.Errorf("browser: unknown protocol %q (want h1, h2 or h3)", s)
	}
}

// AltSvcer is an optional Environment extension advertising HTTP/3
// support per host (the Alt-Svc discovery step of the cross-layer
// QUIC/DNS/HTTP-3 interaction papers). A browser configured for
// ProtoH3 falls back to ProtoH2 for connections to hosts the
// environment does not advertise; environments without the extension
// are assumed to support h3 everywhere.
type AltSvcer interface {
	SupportsH3(host string) bool
}

// handshakeKind returns the obs event kind for a non-resumed handshake
// under p: QUIC's combined handshake for h3, the TCP+TLS handshake
// otherwise. Keeping h1/h2 on the historical kind preserves byte
// identity of pre-protocol event streams.
func handshakeKind(p Protocol) string {
	if p == ProtoH3 {
		return obs.KindQUICHandshake
	}
	return obs.KindTLSHandshake
}

// connProto returns the protocol one fresh connection to host will
// actually speak: the browser's configured protocol, downgraded to h2
// when an h3 browser learns via Alt-Svc that the host does not serve
// QUIC.
func (b *Browser) connProto(env Environment, host string) Protocol {
	if b.Proto != ProtoH3 {
		return b.Proto
	}
	if as, ok := env.(AltSvcer); ok && !as.SupportsH3(host) {
		return ProtoH2
	}
	return ProtoH3
}
