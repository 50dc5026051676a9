package cdn

import (
	"net/netip"
	"testing"
)

// §5.2 infers new third-party TLS connections from a sampled log; the
// simulator knows them, because every visit returns its own count. At
// sample rate 1 with no faults the estimator must count exactly what the
// visits opened, per treatment, in every phase. Visits run through Visit
// in RunDay's order.
//
// The coalescing signal is held to a bound rather than to equality: the
// log counts a connection once however many pools ride it, while
// VisitResult.CoalescedPools counts each pool, so the log's
// CoalescedConns never exceeds the visits' CoalescedPools (class "one
// connection, several coalesced pools").
func TestPassiveMatchesTruth(t *testing.T) {
	isolated := netip.MustParseAddr("104.19.99.99")
	phases := []struct {
		name  string
		enter func(c *CDN)
	}{
		{"baseline", func(*CDN) {}},
		{"ip", (*CDN).EnterPhaseIP},
		{"origin, isolated", func(c *CDN) { c.EnterPhaseOrigin(isolated) }},
		{"origin, own addresses", func(c *CDN) { c.EnterPhaseOrigin(netip.Addr{}) }},
	}
	for _, phase := range phases {
		c := New(Config{SampleRate: 1})
		cfg := DefaultExperimentConfig()
		cfg.SampleSize = 800
		e := SetupExperiment(c, cfg)
		phase.enter(c)
		newConns, coalesced := map[Treatment]int{}, map[Treatment]int{}
		for day := 0; day < 3; day++ {
			for _, z := range e.SampleZones {
				for v := 0; v < visitsPerZonePerDay; v++ {
					res := e.Visit(z, e.sampleUA(), day)
					newConns[z.Treatment] += res.NewThirdParty
					coalesced[z.Treatment] += res.CoalescedPools
				}
			}
		}
		pc := countPassive(c.Pipeline().each, c.ThirdParty, "")
		t.Logf("%s: new %v log %v; coalesced %v log %v", phase.name, newConns, pc.NewTLSConns, coalesced, pc.CoalescedConns)
		for _, tr := range []Treatment{TreatmentControl, TreatmentExperiment} {
			if got, want := pc.NewTLSConns[tr], newConns[tr]; got != want || want == 0 {
				t.Errorf("%s, %v: the log counts %d new third-party TLS connections, the visits opened %d",
					phase.name, tr, got, want)
			}
			if got, pools := pc.CoalescedConns[tr], coalesced[tr]; got > pools {
				t.Errorf("%s, %v: the log counts %d coalesced connections, more than the visits' %d coalesced pools",
					phase.name, tr, got, pools)
			}
		}
	}
}
