package faults

import (
	"net/netip"

	"respectorigin/internal/browser"
)

// Env wraps a browser.Environment with fault injection at the network
// boundary the browser sees:
//
//   - Lookup fails with SERVFAIL or a resolver timeout,
//   - fresh connection attempts fail their TLS handshake (reported
//     through the browser.ConnectFailer extension),
//   - reuse authorization flaps (stale origin sets / de-provisioned
//     edges), so reuse attempts bounce with 421 as in §5.3.
//
// Certificate SANs and origin sets pass through unchanged: the fault is
// the edge no longer honoring what it advertised, not the advertisement
// itself.
type Env struct {
	Inner browser.Environment
	Inj   *Injector
}

var (
	_ browser.Environment   = (*Env)(nil)
	_ browser.ConnectFailer = (*Env)(nil)
	_ browser.TTLLookuper   = (*Env)(nil)
	_ browser.AltSvcer      = (*Env)(nil)
)

// Lookup resolves through the inner environment unless a DNS fault
// fires first.
func (e *Env) Lookup(host string) ([]netip.Addr, error) {
	if e.Inj.Hit(kindDNSFail) {
		return nil, errDNSServFail
	}
	if e.Inj.Hit(kindDNSTimeout) {
		return nil, errDNSTimeout
	}
	return e.Inner.Lookup(host)
}

// LookupTTL implements browser.TTLLookuper with the same fault draws as
// Lookup, so a cache-carrying browser sees an identical fault stream.
// When the inner environment does not expose TTLs the answer is
// reported uncacheable (TTL 0).
func (e *Env) LookupTTL(host string) ([]netip.Addr, uint32, error) {
	if e.Inj.Hit(kindDNSFail) {
		return nil, 0, errDNSServFail
	}
	if e.Inj.Hit(kindDNSTimeout) {
		return nil, 0, errDNSTimeout
	}
	if tl, ok := e.Inner.(browser.TTLLookuper); ok {
		return tl.LookupTTL(host)
	}
	addrs, err := e.Inner.Lookup(host)
	return addrs, 0, err
}

// CertSANs passes through.
func (e *Env) CertSANs(host string, ip netip.Addr) []string {
	return e.Inner.CertSANs(host, ip)
}

// OriginSet passes through.
func (e *Env) OriginSet(host string, ip netip.Addr) []string {
	return e.Inner.OriginSet(host, ip)
}

// Reachable consults the inner environment and then rolls the
// stale-origin fault: a hit downgrades an authoritative edge to a 421,
// the fail-open behaviour the paper observed for misconfigured origin
// sets.
func (e *Env) Reachable(host string, ip netip.Addr) bool {
	ok := e.Inner.Reachable(host, ip)
	if ok && e.Inj.Hit(kindStaleOrigin) {
		return false
	}
	return ok
}

// SupportsH3 passes through Alt-Svc advertisement: the fault layer
// degrades the network, not what the server says it speaks. Inner
// environments without the extension support h3 everywhere, matching
// the browser's own default for extension-less environments.
func (e *Env) SupportsH3(host string) bool {
	if as, ok := e.Inner.(browser.AltSvcer); ok {
		return as.SupportsH3(host)
	}
	return true
}

// ConnectFail implements browser.ConnectFailer: fresh connections fail
// their TLS handshake with the plan's TLSFailProb.
func (e *Env) ConnectFail(host string, ip netip.Addr) error {
	if e.Inj.Hit(KindTLSFail) {
		return errTLSHandshake
	}
	return nil
}
