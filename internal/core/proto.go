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

// Replayer replays recorded page loads against warm-path state it
// owns: one cache and HTTP/1.1's per-visit keep-alive set. Sequence
// resets both for each page, so one Replayer per worker serves any
// number of pages and stops allocating once its storage fits the
// largest. The zero Replayer has no cache: every visit is the pure cold
// one. A Replayer is not safe for concurrent use.
type Replayer struct {
	c         *cache.Cache
	connected map[string]bool // h1 only: hostnames with a live connection this visit
	// hostSANs backs the one-name SAN lists of entries that carry no
	// certificate. Grants keep them until the cache's next Reset, so
	// only Sequence truncates it.
	hostSANs []string
}

// NewReplayer returns a Replayer whose cache is built from opts.
func NewReplayer(opts cache.Options) *Replayer {
	return &Replayer{c: cache.New(opts)}
}

// Sequence replays p len(acc) times under one protocol against a reset
// cache, advancing the cache clock by cache.DefaultRevisitIntervalMs
// between visits, and adds what visit v+1 paid into acc[v]; visit 1 is
// the cold load.
func (r *Replayer) Sequence(p *har.Page, proto Protocol, acc []VisitCosts) {
	r.c.Reset()
	r.hostSANs = r.hostSANs[:0]
	for v := range acc {
		if v > 0 {
			r.c.Clock().AdvanceMs(cache.DefaultRevisitIntervalMs)
		}
		acc[v].Add(r.visit(p, proto))
	}
}

// visit replays one recorded page load under the given protocol
// against the replayer's warm-path cache, as the visits before it left
// it, and returns what the visit paid. The page itself is the visit
// structure — which requests issued fresh DNS queries and handshakes
// (NewDNS/NewTLS) versus riding existing state — and the cache
// decides, per fresh setup, whether warm state makes it cheaper:
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
// Without a cache (the zero Replayer) the visit is cold: under ProtoH2
// and ProtoH3 the returned DNSQueries and FullHandshakes then equal the
// page's measured §4.2 counts exactly (p.DNSQueries() and
// p.TLSConnections()).
func (r *Replayer) visit(p *har.Page, proto Protocol) VisitCosts {
	c := r.c
	vc := VisitCosts{Pages: 1}
	if proto == ProtoH1 {
		if r.connected == nil {
			r.connected = map[string]bool{}
		}
		clear(r.connected)
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
			reused = r.connected[e.Host]
			r.connected[e.Host] = true
		}
		if reused {
			vc.ReusedConns++
			continue
		}
		sans := e.CertSANs
		if len(sans) == 0 {
			// A request the recording coalesced carries no certificate
			// (h1 opens connections for such requests): its host's name
			// stands in.
			r.hostSANs = append(r.hostSANs, e.Host)
			n := len(r.hostSANs)
			sans = r.hostSANs[n-1 : n : n]
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
