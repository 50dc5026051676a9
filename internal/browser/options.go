package browser

import "respectorigin/internal/cache"

// Option configures a Browser at construction. Options replace the
// historical pattern of poking exported fields after New: a call like
//
//	b := browser.New(p, browser.WithRetries(2, 250), browser.WithCache(c))
//
// builds a fully-configured pool in one expression. The exported fields
// remain writable for compatibility, but new call sites should prefer
// options so construction-time invariants stay in one place.
type Option func(*Browser)

// WithSkipOriginDNS suppresses the blocking DNS query for hosts found
// in an ORIGIN frame's origin set (the §6.8 recommended client change).
// Only meaningful for PolicyFirefoxOrigin.
func WithSkipOriginDNS(skip bool) Option {
	return func(b *Browser) { b.SkipOriginDNS = skip }
}

// WithRetries sets the retry budget for failed lookups and connection
// attempts and the base of the exponential backoff schedule.
func WithRetries(max int, backoffMs float64) Option {
	return func(b *Browser) {
		b.MaxRetries = max
		b.RetryBackoffMs = backoffMs
	}
}

// WithCache installs the warm-path cache (DNS answers, TLS session
// tickets, validated-chain memo). nil keeps every warm path disabled.
func WithCache(c *cache.Cache) Option {
	return func(b *Browser) { b.Cache = c }
}

// WithPoolLimits caps the connection pool: maxConns bounds the total
// pool size (LRU eviction at the bound) and maxPerHost bounds the
// connections pooled per hostname (same-host multiplexing at the
// bound). 0 for either leaves that dimension unbounded — the
// historical behaviour.
func WithPoolLimits(maxConns, maxPerHost int) Option {
	return func(b *Browser) {
		b.MaxConns = maxConns
		b.MaxConnsPerHost = maxPerHost
	}
}

// WithDNSTransport keys the browser's warm-path DNS cache touches by
// resolver transport. The default (TransportDo53) preserves the
// historical keying byte for byte.
func WithDNSTransport(t cache.DNSTransport) Option {
	return func(b *Browser) { b.DNSTransport = t }
}
