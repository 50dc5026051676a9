// Package quic is the HTTP/3 row of the connection price list: how many
// round trips a QUIC connection establishment costs given the client's
// warm state. That is all of QUIC the coalescing cost model needs —
//
//   - Path is the resumed × token table: a protocol-keyed session
//     ticket abbreviates the cryptographic handshake, a live
//     address-validation token spares the Retry round trip, and both
//     together are 0-RTT. Tickets and tokens live in internal/cache and
//     are shared across hostnames by certificate SAN coverage (the
//     shared-address-validation model).
//   - report's -proto-sweep builds a Path from what a replay recorded
//     and asks it for RTTs; loadgen's h3 users price theirs on the
//     network model with Path.HandshakeTime.
//   - Establish redeems and mints that state for one connection
//     directly against a cache.
//
// There is no transport here: no connection IDs, streams, frames or
// packets. Nothing this repository reports depends on them.
//
// Like every layer of the stack it is deterministic: no wall-clock
// reads, no package-level RNG — every draw comes from a seeded stream
// the caller owns.
package quic

import (
	"respectorigin/internal/cache"
	"respectorigin/internal/netsim"
)

// Path describes how one QUIC connection establishment proceeds, as
// determined by the client's warm state:
//
//   - Resumed: a protocol-keyed TLS session ticket (PSK) covered the
//     host, so the cryptographic handshake is abbreviated and no
//     certificate chain is presented or validated.
//   - TokenHit: a live address-validation token covered the host, so
//     the server skips its Retry and the validation round trip is free.
//
// The four combinations price out as:
//
//	resumed + token  → 0-RTT: application data rides the first flight
//	resumed, no token → 1 RTT handshake + 1 RTT Retry
//	full + token      → 1 RTT handshake
//	full, no token    → 1 RTT handshake + 1 RTT Retry
//
// A cold client (nil cache) takes the full-no-token path: 2 RTTs,
// still cheaper than the default TCP+TLS1.2 profile's 3.
type Path struct {
	Resumed  bool
	TokenHit bool
}

// ZeroRTT reports whether the establishment sends application data in
// the first flight: it needs both a PSK to encrypt under and a token
// so the server accepts the data before validating the path.
func (p Path) ZeroRTT() bool { return p.Resumed && p.TokenHit }

// RTTs returns the round trips the establishment costs before
// application data flows.
func (p Path) RTTs() float64 {
	rtts := 1.0
	if p.ZeroRTT() {
		rtts = 0
	}
	if !p.TokenHit {
		rtts++ // address validation via Retry
	}
	return rtts
}

// HandshakeTime prices the establishment on the network model: the
// path's round trips, plus chain validation for full handshakes.
// Exactly one jitter draw regardless of path (the netsim stream
// contract), so warm and cold h3 runs stay comparable draw for draw.
func (p Path) HandshakeTime(n *netsim.Network, sanCount int) float64 {
	return n.QUICHandshakeTime(p.RTTs(), !p.Resumed, sanCount)
}

// Establish consults the warm-path cache for one fresh h3 connection
// to host and returns the handshake path, minting a fresh session
// ticket and address-validation token for the certificate's coverage
// either way (the NewSessionTicket + NEW_TOKEN flow every handshake
// completes with). Both redemptions and both mints are keyed by
// ProtoWireH3: state minted by TCP-based protocols never matches, and
// state minted here never resumes an h1/h2 session. A nil cache is the
// cold path: Path{}, costing the full 2-RTT establishment.
func Establish(c *cache.Cache, host string, sans []string) Path {
	p := Path{
		Resumed:  c.RedeemTicketProto(host, cache.ProtoWireH3),
		TokenHit: c.RedeemToken(host, cache.ProtoWireH3),
	}
	c.StoreTicketProto(sans, cache.ProtoWireH3)
	c.StoreToken(sans, cache.ProtoWireH3)
	return p
}
