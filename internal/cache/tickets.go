package cache

// TicketStore models TLS session-ticket resumption keyed by certificate
// coverage: a ticket is redeemable for any hostname the issuing
// connection's certificate covers, enabling resumption across hostnames
// (arXiv:1902.02531) exactly as coalescing reuses a connection across
// hostnames. Tickets expire after the configured lifetime and can be
// single-use; redemption takes the oldest live covering ticket (see
// coverStore).
type TicketStore struct{ s coverStore }

// Wire protocol keys for protocol-versioned warm state. A TLS session
// ticket (or an address-validation token) carries the protocol version
// of the session that minted it, and redemption requires an exact
// match: an h2 ticket must never produce a 0-RTT h3 resumption, and
// vice versa — the stores are logically separate per protocol even
// though one client holds them all.
const (
	ProtoWireH1 = 1
	ProtoWireH2 = 2
	ProtoWireH3 = 3
)

func newTicketStore(lifetimeMs int64, singleUse bool) *TicketStore {
	return &TicketStore{newCoverStore(lifetimeMs, singleUse)}
}

// Enabled reports whether tickets are issued at all (a zero lifetime
// disables resumption entirely).
func (t *TicketStore) Enabled() bool { return t.s.enabled() }

// StoreProto issues a session ticket for a connection whose certificate
// carries the given SANs, keyed by the wire protocol that minted it.
// Full and resumed handshakes both issue fresh tickets (the TLS 1.3
// NewSessionTicket flow). sans is retained and must not be modified.
func (t *TicketStore) StoreProto(sans []string, proto int, nowMs int64) {
	t.s.store(sans, proto, nowMs)
}

// RedeemProto consumes (or, for reusable tickets, touches) the oldest
// live ticket minted under the same wire protocol whose certificate
// coverage includes host, reporting whether a resumption handshake is
// possible. Tickets minted under a different protocol never match —
// the TLS session state of an h2 connection cannot resume an h3
// session. Expired tickets are dropped first; a ticket expiring exactly
// at nowMs is dead.
func (t *TicketStore) RedeemProto(host string, proto int, nowMs int64) bool {
	return t.s.redeem(host, proto, nowMs)
}

// Len reports the live ticket count (expired tickets may linger until
// the next Redeem).
func (t *TicketStore) Len() int { return t.s.len() }

func (t *TicketStore) addStats(s *Stats) {
	t.s.addCounts(&s.TicketsIssued, &s.TicketHits, &s.TicketMisses, &s.TicketsExpired)
}
