package cache

// tokenStore models QUIC address-validation tokens (RFC 9000 §8.1.3
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
// store's, so warm state can never leak across protocol versions. A
// token serves until it expires, defaultTokenLifetimeSeconds after it
// was minted (the shared-validation model re-presents one token across
// connections).
type tokenStore struct{ s coverStore }
