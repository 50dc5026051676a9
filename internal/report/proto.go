package report

import (
	"fmt"
	"strings"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
	"respectorigin/internal/netsim"
)

// ProtoCosts is one protocol's warm/cold visit sequence.
type ProtoCosts struct {
	Proto  core.Protocol
	Visits []core.VisitCosts
}

// WarmColdProto is Replay under one protocol: the per-visit ledgers
// alone, or nil when revisits ≤ 0. The benchmark calls it to time each
// protocol's replay on its own.
func (c *Corpus) WarmColdProto(revisits int, opts cache.Options, proto core.Protocol) []core.VisitCosts {
	if revisits <= 0 {
		return nil
	}
	return c.Replay(revisits, opts, proto)[0].Visits
}

// Replay replays every retained page revisits times under each
// protocol of protos in one pass, each page from a reset warm-path
// cache, and returns the per-visit ledgers summed across pages, as
// ReplayStream does for a stream. The pass fans out across the corpus
// workers with one replayer per worker; per-page sequences are
// independent and ledger addition is associative, so the result is
// identical for any worker count. Replays depend on their parameters,
// so they are folded on every call and never kept; a streamed corpus
// has no pages left to replay.
func (c *Corpus) Replay(revisits int, opts cache.Options, protos ...core.Protocol) []ProtoCosts {
	if c.DS == nil {
		panic("report: a streamed corpus keeps no pages to replay; use ReplayStream")
	}
	return foldPages(c.DS.Pages, c.workers, func() fold { return fold{newWarmAcc(revisits, opts, protos)} })[0].(*warmAcc).costs()
}

// warmAcc is the warm-replay accumulator: per protocol, the per-visit
// ledgers summed over the pages added. The replayer it drives is the
// worker's (scratch), reset for every page.
type warmAcc struct {
	opts   cache.Options
	protos []core.Protocol
	visits [][]core.VisitCosts // [protocol][visit]
}

func newWarmAcc(revisits int, opts cache.Options, protos []core.Protocol) *warmAcc {
	a := &warmAcc{opts: opts, protos: protos, visits: make([][]core.VisitCosts, len(protos))}
	for i := range a.visits {
		a.visits[i] = make([]core.VisitCosts, revisits)
	}
	return a
}

func (a *warmAcc) add(s *scratch, p *har.Page) {
	if s.replay == nil {
		s.replay = core.NewReplayer(a.opts)
	}
	for i, proto := range a.protos {
		s.replay.Sequence(p, proto, a.visits[i])
	}
}

func (a *warmAcc) merge(next accumulator) {
	o := next.(*warmAcc)
	for i, visits := range a.visits {
		for v := range visits {
			visits[v].Add(o.visits[i][v])
		}
	}
}

func (a *warmAcc) costs() []ProtoCosts {
	out := make([]ProtoCosts, len(a.protos))
	for i, proto := range a.protos {
		out[i] = ProtoCosts{Proto: proto, Visits: a.visits[i]}
	}
	return out
}

// Replay runs the deployment experiment's returning-visitor
// measurement revisits times under each protocol of protos during the
// IP-coalescing phase (where cross-host coalescing is strongest) and
// restores baseline afterwards, as Corpus.Replay does for a corpus.
func (d *Deployment) Replay(revisits int, opts cache.Options, protos ...core.Protocol) []ProtoCosts {
	d.CDN.EnterPhaseIP()
	out := make([]ProtoCosts, len(protos))
	for i, proto := range protos {
		out[i] = ProtoCosts{Proto: proto, Visits: d.Exp.WarmColdProto(revisits, opts, proto)}
	}
	d.CDN.ExitExperiment()
	return out
}

// setupMs prices one ledger's connection setups from the netsim price
// list — pure arithmetic on the network parameters, no RNG, no jitter —
// so the sweep table is deterministic by construction. Each fresh
// connection is one netsim.Setup; reused (coalesced) connections cost
// nothing by definition.
func setupMs(vc core.VisitCosts, proto core.Protocol, p netsim.Params) float64 {
	if proto != core.ProtoH3 {
		return float64(vc.ResumedTLS)*p.SetupMs(netsim.Setup{Resumed: true}) + float64(vc.FullHandshakes)*p.SetupMs(netsim.Setup{})
	}
	// Decompose fresh h3 connections by (resumed, token) from the exact
	// ledger identities: AddrTokenHits + AddrValidations = fresh conns.
	fullTok := vc.AddrTokenHits - vc.ZeroRTT
	price := func(conns int, resumed, token bool) float64 {
		return float64(conns) * p.SetupMs(netsim.Setup{QUIC: true, Resumed: resumed, TokenHit: token})
	}
	return price(vc.ZeroRTT, true, true) +
		price(vc.ResumedTLS-vc.ZeroRTT, true, false) +
		price(fullTok, false, true) +
		price(vc.FullHandshakes-fullTok, false, false)
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
	retryMs := p.SetupMs(netsim.Setup{QUIC: true}) - p.SetupMs(netsim.Setup{QUIC: true, TokenHit: true})
	fmt.Fprintf(&sb, "Coalescing frontier at visit %d (vs h1 keep-alive, %.1f ms setup):\n", last+1, c1)
	fmt.Fprintf(&sb, "  ORIGIN-equivalent coalescing (h2): %+d reused conns, setup %.1f ms (-%.1f%%)\n",
		h2.ReusedConns-h1.ReusedConns, c2, measure.ReductionPct(c1, c2))
	fmt.Fprintf(&sb, "  H3 resumption:                     %d resumed (%d 0-RTT), setup %.1f ms (-%.1f%%)\n",
		h3.ResumedTLS, h3.ZeroRTT, c3, measure.ReductionPct(c1, c3))
	fmt.Fprintf(&sb, "  shared address validation:         %d token hits avoided %d Retry RTTs (%.1f ms)\n",
		h3.AddrTokenHits, h3.AddrTokenHits, float64(h3.AddrTokenHits)*retryMs)
	return sb.String()
}
