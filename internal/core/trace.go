package core

import (
	"respectorigin/internal/har"
	"respectorigin/internal/obs"
)

// EmitPageEvents replays one measured page load into rec as a trace
// span ranked by the page's popularity rank: page_start, one dns_query
// per fresh lookup (plus the ExtraDNS race effects), one tls_handshake
// per fresh handshake (plus ExtraTLS), one coalesce_hit per request
// that rode an existing connection, and a page_end carrying the §4.2
// model counts (measured DNS/TLS and the ideal-IP/ideal-ORIGIN
// predictions of countPage). Event counts are exact: a span's
// dns_query events sum to p.DNSQueries() and its tls_handshake events
// to p.TLSConnections(), so funnel totals rebuilt from a trace match
// the Figure 3 inputs byte for byte.
//
// Sequence numbers follow entry order, which is deterministic for a
// given corpus seed; a nil recorder emits nothing.
func EmitPageEvents(rec obs.Recorder, p *har.Page) {
	if rec == nil || p == nil {
		return
	}
	seq := 0
	next := func() int { s := seq; seq++; return s }
	obs.Count(rec, "crawl.pages", 1)
	obs.Emit(rec, obs.Event{Rank: p.Rank, Seq: next(), Kind: obs.KindPageStart, Host: p.Host, N: len(p.Entries)})
	for i := range p.Entries {
		e := &p.Entries[i]
		if e.NewDNS {
			obs.Count(rec, "crawl.dns_queries", 1)
			obs.Emit(rec, obs.Event{Rank: p.Rank, Seq: next(), Kind: obs.KindDNSQuery, Host: e.Host, MS: e.Timings.DNS})
		}
		if e.NewTLS {
			obs.Count(rec, "crawl.tls_handshakes", 1)
			obs.Emit(rec, obs.Event{Rank: p.Rank, Seq: next(), Kind: obs.KindTLSHandshake, Host: e.Host, MS: e.Timings.SSL, Detail: e.ServerIP.String()})
		} else if i > 0 {
			obs.Count(rec, "crawl.reused_conns", 1)
			obs.Emit(rec, obs.Event{Rank: p.Rank, Seq: next(), Kind: obs.KindCoalesceHit, Host: e.Host, Detail: "reuse"})
		}
	}
	for i := 0; i < p.ExtraDNS; i++ {
		obs.Count(rec, "crawl.dns_queries", 1)
		obs.Emit(rec, obs.Event{Rank: p.Rank, Seq: next(), Kind: obs.KindDNSQuery, Host: p.Host, Detail: "race"})
	}
	for i := 0; i < p.ExtraTLS; i++ {
		obs.Count(rec, "crawl.tls_handshakes", 1)
		obs.Emit(rec, obs.Event{Rank: p.Rank, Seq: next(), Kind: obs.KindTLSHandshake, Host: p.Host, Detail: "race"})
	}
	pc := countPage(p)
	obs.Emit(rec, obs.Event{
		Rank: p.Rank, Seq: next(), Kind: obs.KindPageEnd, Host: p.Host, N: len(p.Entries),
		DNS: pc.MeasuredDNS, TLS: pc.MeasuredTLS, IdealIP: pc.IdealIP, IdealOrigin: pc.IdealOrigin,
	})
}
