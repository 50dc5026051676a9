package cache

// ticketStore models TLS session-ticket resumption keyed by certificate
// coverage: a ticket is redeemable for any hostname the issuing
// connection's certificate covers, enabling resumption across hostnames
// (arXiv:1902.02531) exactly as coalescing reuses a connection across
// hostnames. Tickets expire after the configured lifetime and serve
// until then; a redemption asks whether any live ticket covers the host
// (see coverStore).
type ticketStore struct{ s coverStore }

// Wire protocol keys for protocol-versioned warm state. A TLS session
// ticket (or an address-validation token) carries the protocol version
// of the session that minted it, and redemption requires an exact
// match: an h2 ticket must never produce a 0-RTT h3 resumption, and
// vice versa — the stores are logically separate per protocol even
// though one client holds them all.
const (
	protoWireH1 = 1
	ProtoWireH2 = 2
	ProtoWireH3 = 3
)
