package cache

// TokenStore models QUIC address-validation tokens (RFC 9000 §8.1.3
// NEW_TOKEN): a server that has validated a client's address hands it a
// token, and presenting a live token on a later connection lets the
// server skip the Retry round trip. Following the shared-address-
// validation proposal ("Surfing the Web quicker than QUIC via a shared
// Address Validation"), tokens are keyed by certificate SAN coverage
// exactly like session tickets, so one token covers every hostname of
// the issuing deployment and a revisit to any covered host skips the
// validation RTT — the address being validated is the client's, not
// the server's, so sharing across a provider's hostnames is sound.
//
// Tokens are additionally keyed by wire protocol: only QUIC mints or
// redeems them, and the exact-match discipline mirrors the ticket
// store's, so warm state can never leak across protocol versions.
// Unlike single-use TLS 1.3 tickets, a token serves until it expires
// (the shared-validation model re-presents one token across
// connections).
type TokenStore struct{ s coverStore }

func newTokenStore(lifetimeMs int64) *TokenStore {
	return &TokenStore{newCoverStore(lifetimeMs, false)}
}

// Enabled reports whether tokens are issued at all.
func (t *TokenStore) Enabled() bool { return t.s.enabled() }

// Store issues an address-validation token for a connection whose
// certificate carries the given SANs, keyed by the wire protocol that
// minted it. sans is retained and must not be modified.
func (t *TokenStore) Store(sans []string, proto int, nowMs int64) {
	t.s.store(sans, proto, nowMs)
}

// Redeem reports whether a live token minted under the same wire
// protocol covers host, dropping expired tokens first. A token expiring
// exactly at nowMs is dead. Redemption does not consume the token.
func (t *TokenStore) Redeem(host string, proto int, nowMs int64) bool {
	return t.s.redeem(host, proto, nowMs)
}

// Len reports the live token count (expired tokens may linger until the
// next Redeem).
func (t *TokenStore) Len() int { return t.s.len() }

func (t *TokenStore) addStats(s *Stats) {
	t.s.addCounts(&s.TokensIssued, &s.TokenHits, &s.TokenMisses, &s.TokensExpired)
}
