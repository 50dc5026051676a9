package core

import (
	"respectorigin/internal/browser"
	"respectorigin/internal/cache"
	"respectorigin/internal/har"
)

// Protocol re-exports the browser package's protocol enum so callers
// replaying pages need not import browser directly.
type Protocol = browser.Protocol

// Protocol values, zero value (h2) first.
const (
	ProtoH2 = browser.ProtoH2
	ProtoH1 = browser.ProtoH1
	ProtoH3 = browser.ProtoH3
)

// Protocols lists every protocol in sweep order (h1, h2, h3).
var Protocols = browser.Protocols

// ParseProtocol parses "h1", "h2" and "h3" (the -proto flag values).
func ParseProtocol(s string) (Protocol, error) { return browser.ParseProtocol(s) }

// ProtocolReplayCosts replays one recorded page load under the given
// protocol against a warm-path cache and returns what the visit paid.
// The page itself is the visit structure — which requests issued fresh
// DNS queries and handshakes (NewDNS/NewTLS) versus riding existing
// state — and the cache decides, per fresh setup, whether warm state
// makes it cheaper:
//
//   - a NewDNS entry consults the DNS cache before "querying"; misses
//     populate it with the entry's answer set under the cache's default
//     TTL (HAR records carry no TTLs);
//   - a NewTLS entry settles its handshake through cache.Handshake: a
//     session ticket covering the host skips the full handshake and
//     validation entirely, otherwise a full handshake runs whose chain
//     validation the memo may skip; either way the handshake's
//     certificate mints a ticket;
//   - entries reusing connections (!NewTLS, secure) count as coalescing
//     reuse; race extras (ExtraDNS/ExtraTLS) are speculative and bypass
//     every cache, so they cost the same on every visit.
//
// ProtoH2 replays the recorded structure as is — the paper's baseline.
// The other two protocols reinterpret the page's connection structure
// while keeping its DNS accounting identical, deliberately isolating
// the transport effect from resolution effects so per-protocol ledgers
// stay directly comparable (LookupsNeeded is invariant across
// protocols):
//
//   - ProtoH1: no cross-host coalescing. A request reuses a connection
//     only when an earlier request in the same visit already connected
//     to the same hostname (keep-alive); every first contact with a
//     hostname pays a connection, whatever the recorded h2 coalescing
//     said. Tickets are redeemed and minted under the h1 key.
//   - ProtoH3: the recorded coalescing structure holds (the SAN rules
//     authorizing h2 coalescing authorize h3 pooling equally), but every
//     fresh connection additionally settles address validation: a
//     stored token covering the host skips the Retry round trip
//     (AddrTokenHits), otherwise validation is performed
//     (AddrValidations). A ticket and a token together make the
//     handshake 0-RTT. Both are redeemed and minted under the h3 key,
//     so h2 state never leaks into an h3 replay.
//
// A nil cache replays the pure cold visit: under ProtoH2 and ProtoH3
// the returned DNSQueries and FullHandshakes then equal the page's
// measured §4.2 counts exactly (p.DNSQueries() and p.TLSConnections()).
func ProtocolReplayCosts(p *har.Page, proto Protocol, c *cache.Cache) VisitCosts {
	vc := VisitCosts{Pages: 1}
	var connected map[string]bool // h1 only: hostnames with a live connection
	if proto == ProtoH1 {
		connected = map[string]bool{}
	}
	wire := proto.Wire()
	for i := range p.Entries {
		e := &p.Entries[i]
		if e.NewDNS {
			if _, negative, ok := c.LookupDNS(e.Host); ok {
				if negative {
					vc.DNSNegHits++
				} else {
					vc.DNSCacheHits++
				}
			} else {
				vc.DNSQueries++
				if len(e.DNSAnswer) > 0 {
					c.PutDNS(e.Host, e.DNSAnswer, c.DefaultTTL())
				}
			}
		} else {
			vc.DNSCoalesced++
		}
		if !e.Secure {
			continue
		}
		vc.ConnsNeeded++
		reused := !e.NewTLS
		if proto == ProtoH1 {
			// Keep-alive only: reuse requires a live same-host connection.
			reused = connected[e.Host]
			connected[e.Host] = true
		}
		if reused {
			vc.ReusedConns++
			continue
		}
		sans := e.CertSANs
		if len(sans) == 0 {
			sans = []string{e.Host}
		}
		vc.AddHandshake(c.Handshake(e.Host, e.CertIssuer, sans, wire), proto)
	}
	// Happy-eyeballs and speculative-connection races (§4.2) fire before
	// any answer, ticket or token could be consulted; under h3 the
	// speculative connections also pay address validation.
	vc.DNSQueries += p.ExtraDNS
	vc.ConnsNeeded += p.ExtraTLS
	vc.FullHandshakes += p.ExtraTLS
	vc.Validations += p.ExtraTLS
	if proto == ProtoH3 {
		vc.AddrValidations += p.ExtraTLS
	}
	return vc
}

// ProtocolReplaySequence replays a page visits times under one protocol
// against one fresh cache built from opts, advancing the cache clock by
// cache.DefaultRevisitIntervalMs between visits. Element i of the
// result is what visit i+1 paid; visit 1 is the cold load. A zero
// visits count returns nil.
func ProtocolReplaySequence(p *har.Page, visits int, opts cache.Options, proto Protocol) []VisitCosts {
	if visits <= 0 {
		return nil
	}
	c := cache.New(opts)
	out := make([]VisitCosts, visits)
	for v := 0; v < visits; v++ {
		if v > 0 {
			c.Clock().AdvanceMs(cache.DefaultRevisitIntervalMs)
		}
		out[v] = ProtocolReplayCosts(p, proto, c)
	}
	return out
}
