package cdn

import (
	"respectorigin/internal/browser"
	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/lazyrand"
)

// WarmColdProto measures the marginal cost of returning visitors under
// one application protocol: every sample zone's page is visited revisits
// times by one Firefox client whose warm-path cache (built from opts
// once per run, reset per zone) persists across visits, with the cache
// clock advanced by cache.DefaultRevisitIntervalMs between them.
// Element i of the result sums what visit i+1 cost across all zones;
// element 0 is the cold load.
//
// The visit structure — which third-party pools are anonymous — is
// drawn once per zone from a dedicated stream, so every revisit replays
// the identical request sequence and per-visit differences decompose
// exactly into {coalescing, DNS cache, TLS resumption, cert memo}.
// Visits never touch the log pipeline or the experiment's own RNG, so
// running WarmColdProto leaves every other measurement untouched.
//
// ProtoH2 is the paper's baseline; ProtoH1 disables cross-host
// coalescing; ProtoH3 pays QUIC handshake paths and tracks token/0-RTT
// state. The per-zone anonymity stream is drawn identically for every
// protocol, so per-protocol differences isolate the transport effect.
func (e *Experiment) WarmColdProto(revisits int, opts cache.Options, proto core.Protocol) []core.VisitCosts {
	if revisits <= 0 {
		return nil
	}
	costs := make([]core.VisitCosts, revisits)
	// One client and one cache for the run: the browser's Reset opens a
	// fresh browsing session, the cache's a fresh client for each zone.
	c := cache.New(opts)
	b := &browser.Browser{Policy: browser.PolicyFirefoxOrigin, Proto: proto, Cache: c}
	for zi, z := range e.SampleZones {
		if z.Churned {
			continue
		}
		zrng := lazyrand.New(e.Cfg.Seed ^ (int64(zi)+1)*0x9e3779b9)
		anon := make([]bool, z.ThirdPartyPools)
		for p := range anon {
			anon[p] = p == 0 && z.UsesAnonymousFetch || p > 0 && zrng.Float64() < 0.5
		}
		c.Reset()
		for v := 0; v < revisits; v++ {
			if v > 0 {
				c.Clock().AdvanceMs(cache.DefaultRevisitIntervalMs)
			}
			b.Reset() // fresh browsing session; warm state survives in c
			costs[v].Add(e.warmVisit(z, b, anon))
		}
	}
	return costs
}

// warmVisit is one page view of z through a persistent-cache browser,
// returning the visit's cost ledger. Anonymous third-party pools go
// through the browser's uncredentialed path: they never ride the
// coalescing pool but still see the client's DNS cache, ticket store and
// chain memo, as uncredentialed requests share OS- and TLS-layer state.
func (e *Experiment) warmVisit(z *Zone, b *browser.Browser, anon []bool) core.VisitCosts {
	vc := core.VisitCosts{Pages: 1}
	out := b.Request(e.CDN, z.Host)
	addOutcome(&vc, out)
	if out.Err != nil {
		return vc
	}
	for _, anonymous := range anon {
		if anonymous {
			addOutcome(&vc, b.RequestAnonymous(e.CDN, e.CDN.ThirdParty))
		} else {
			addOutcome(&vc, b.Request(e.CDN, e.CDN.ThirdParty))
		}
	}
	return vc
}

// addOutcome folds one browser outcome into a cost ledger, attributing
// each avoided unit to its cause exactly as the browser accounted it.
func addOutcome(vc *core.VisitCosts, out browser.Outcome) {
	vc.DNSQueries += out.DNSQueries
	vc.DNSCacheHits += out.DNSCacheHits
	if out.NegCacheHit {
		vc.DNSNegHits++
	}
	if out.Err != nil {
		return
	}
	switch {
	case out.Reused():
		vc.ConnsNeeded++
		vc.ReusedConns++
		if out.DNSQueries == 0 && out.DNSCacheHits == 0 {
			// Reuse that issued no lookup at all (the SkipOriginDNS
			// path): the coalescing decision absorbed the DNS need too.
			vc.DNSCoalesced++
		}
	case out.NewConnection():
		vc.ConnsNeeded++
		vc.AddHandshake(out.Handshake, out.Proto)
	}
}
