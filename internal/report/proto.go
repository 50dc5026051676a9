package report

import (
	"fmt"
	"strings"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
	"respectorigin/internal/netsim"
	"respectorigin/internal/quic"
)

// ProtoCosts is one protocol's warm/cold visit sequence.
type ProtoCosts struct {
	Proto  core.Protocol
	Visits []core.VisitCosts
}

// ProtoSweep replays every corpus page revisits times under each
// protocol (h1, h2, h3 — sweep order), each page from a reset cache,
// and sums the per-visit ledgers across pages. The three replays are
// independent passes over the same immutable pages, so the result is
// identical for any worker count.
func (c *Corpus) ProtoSweep(revisits int, opts cache.Options) []ProtoCosts {
	if revisits <= 0 {
		return nil
	}
	out := make([]ProtoCosts, 0, len(core.Protocols))
	for _, proto := range core.Protocols {
		out = append(out, ProtoCosts{Proto: proto, Visits: c.WarmColdProto(revisits, opts, proto)})
	}
	return out
}

// protoAcc is a WarmColdProto chunk accumulator: the chunk's per-visit
// ledgers and the replayer that resets its cache for each page.
type protoAcc struct {
	r      *core.Replayer
	visits []core.VisitCosts
}

// WarmColdProto replays every corpus page revisits times under one
// protocol, each page from a reset warm-path cache, and sums the
// per-visit cost ledgers across pages. The pass fans out across the
// corpus workers with one replayer per chunk; per-page sequences are
// independent and ledger addition is associative, so the result is
// identical for any worker count.
func (c *Corpus) WarmColdProto(revisits int, opts cache.Options, proto core.Protocol) []core.VisitCosts {
	if revisits <= 0 {
		return nil
	}
	return mapPages(c,
		func() protoAcc { return protoAcc{core.NewReplayer(opts), make([]core.VisitCosts, revisits)} },
		func(acc protoAcc, p *har.Page) protoAcc {
			acc.r.Sequence(p, proto, acc.visits)
			return acc
		},
		func(a, b protoAcc) protoAcc {
			for v := range a.visits {
				a.visits[v].Add(b.visits[v])
			}
			return a
		}).visits
}

// WarmColdProto runs the deployment experiment's returning-visitor
// measurement under one protocol during the IP-coalescing phase (where
// cross-host coalescing is strongest) and restores baseline afterwards.
func (d *Deployment) WarmColdProto(revisits int, opts cache.Options, proto core.Protocol) []core.VisitCosts {
	d.CDN.EnterPhaseIP()
	costs := d.Exp.WarmColdProto(revisits, opts, proto)
	d.CDN.ExitExperiment()
	return costs
}

// ProtoSweep runs the deployment experiment's returning-visitor
// measurement under each protocol during the IP-coalescing phase,
// restoring baseline afterwards.
func (d *Deployment) ProtoSweep(revisits int, opts cache.Options) []ProtoCosts {
	d.CDN.EnterPhaseIP()
	out := make([]ProtoCosts, 0, len(core.Protocols))
	for _, proto := range core.Protocols {
		out = append(out, ProtoCosts{Proto: proto, Visits: d.Exp.WarmColdProto(revisits, opts, proto)})
	}
	d.CDN.ExitExperiment()
	return out
}

// setupMs prices one ledger's connection setups from the netsim price
// list — pure arithmetic on the network parameters, no RNG, no jitter —
// so the sweep table is deterministic by construction:
//
//	h1/h2 resumed:  TCP (1 RTT) + TLS round trips
//	h1/h2 full:     the above + certificate verification
//	h3:             quic.Path's round trips for (resumed, token),
//	                + certificate verification unless resumed
//
// Reused (coalesced) connections cost nothing by definition.
func setupMs(vc core.VisitCosts, proto core.Protocol, p netsim.Params) float64 {
	if proto != core.ProtoH3 {
		return float64(vc.ResumedTLS)*p.TCPTLSSetupMs(true) + float64(vc.FullHandshakes)*p.TCPTLSSetupMs(false)
	}
	// Decompose fresh h3 connections by (resumed, token) from the exact
	// ledger identities: AddrTokenHits + AddrValidations = fresh conns.
	fullTok := vc.AddrTokenHits - vc.ZeroRTT
	price := func(conns int, path quic.Path) float64 {
		return float64(conns) * p.QUICSetupMs(path.RTTs(), !path.Resumed)
	}
	return price(vc.ZeroRTT, quic.Path{Resumed: true, TokenHit: true}) +
		price(vc.ResumedTLS-vc.ZeroRTT, quic.Path{Resumed: true}) +
		price(fullTok, quic.Path{TokenHit: true}) +
		price(vc.FullHandshakes-fullTok, quic.Path{})
}

// ProtoSweepTable renders a per-protocol savings decomposition: the
// per-visit ledgers for h1, h2 and h3 side by side, the arithmetic
// setup cost of each, and a frontier comparison of the three coalescing
// mechanisms the sweep isolates — ORIGIN-equivalent coalescing (reuse),
// cross-hostname H3 resumption (tickets), and shared address validation
// (tokens). DNS accounting is held identical across protocols, so every
// difference in the table is a transport effect.
func ProtoSweepTable(sweep []ProtoCosts, p netsim.Params, label string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Protocol sweep (%s):\n", label)
	if len(sweep) == 0 {
		return sb.String()
	}
	sb.WriteString("  proto  visit    dns_q  reused  resumed  full_hs  0rtt  tok_hit  addr_val   setup_ms\n")
	for _, pc := range sweep {
		for v, vc := range pc.Visits {
			fmt.Fprintf(&sb, "  %-5s  %5d %8d %7d %8d %8d %5d %8d %9d %10.1f\n",
				pc.Proto, v+1, vc.DNSQueries, vc.ReusedConns, vc.ResumedTLS,
				vc.FullHandshakes, vc.ZeroRTT, vc.AddrTokenHits, vc.AddrValidations,
				setupMs(vc, pc.Proto, p))
			if !vc.Consistent() {
				fmt.Fprintf(&sb, "  WARNING: %s visit %d ledger inconsistent\n", pc.Proto, v+1)
			}
		}
	}
	// Frontier comparison on the warmest visit of each protocol.
	last := len(sweep[0].Visits) - 1
	if last < 0 {
		return sb.String()
	}
	byProto := map[core.Protocol]core.VisitCosts{}
	for _, pc := range sweep {
		if len(pc.Visits) == len(sweep[0].Visits) {
			byProto[pc.Proto] = pc.Visits[last]
		}
	}
	h1, ok1 := byProto[core.ProtoH1]
	h2, ok2 := byProto[core.ProtoH2]
	h3, ok3 := byProto[core.ProtoH3]
	if !ok1 || !ok2 || !ok3 {
		return sb.String()
	}
	c1 := setupMs(h1, core.ProtoH1, p)
	c2 := setupMs(h2, core.ProtoH2, p)
	c3 := setupMs(h3, core.ProtoH3, p)
	fmt.Fprintf(&sb, "Coalescing frontier at visit %d (vs h1 keep-alive, %.1f ms setup):\n", last+1, c1)
	fmt.Fprintf(&sb, "  ORIGIN-equivalent coalescing (h2): %+d reused conns, setup %.1f ms (-%.1f%%)\n",
		h2.ReusedConns-h1.ReusedConns, c2, measure.ReductionPct(c1, c2))
	fmt.Fprintf(&sb, "  H3 resumption:                     %d resumed (%d 0-RTT), setup %.1f ms (-%.1f%%)\n",
		h3.ResumedTLS, h3.ZeroRTT, c3, measure.ReductionPct(c1, c3))
	fmt.Fprintf(&sb, "  shared address validation:         %d token hits avoided %d Retry RTTs (%.1f ms)\n",
		h3.AddrTokenHits, h3.AddrTokenHits, float64(h3.AddrTokenHits)*p.RTTMs)
	return sb.String()
}
