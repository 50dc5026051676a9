package cdn

import (
	"math"
	"net/netip"
	"slices"
	"sort"
	"testing"

	"respectorigin/internal/browser"
	"respectorigin/internal/lazyrand"
	"respectorigin/internal/measure"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func newTestCDN(sampleRate float64) *CDN {
	return New(Config{SampleRate: sampleRate, Seed: 7})
}

func TestZoneSetupAndCertReissue(t *testing.T) {
	c := newTestCDN(1)
	z1 := c.AddZone("www.a.example", ip("104.18.0.1"))
	z2 := c.AddZone("www.b.example", ip("104.18.0.2"))
	z1.Treatment = TreatmentExperiment
	z2.Treatment = TreatmentControl

	if n := c.ReissueCertificates(); n != 2 {
		t.Errorf("reissued %d", n)
	}
	if !hasSAN(z1.SANs, c.ThirdParty) {
		t.Errorf("experiment cert lacks third party: %v", z1.SANs)
	}
	if hasSAN(z2.SANs, c.ThirdParty) {
		t.Error("control cert has third party")
	}
	if !hasSAN(z2.SANs, c.ControlName) {
		t.Errorf("control cert lacks control name: %v", z2.SANs)
	}
	// Figure 6: identical byte additions.
	if len(c.ControlName) != len(c.ThirdParty) {
		t.Errorf("control name %q not byte-equal to %q", c.ControlName, c.ThirdParty)
	}
	// Reissue is idempotent on SAN content.
	c.ReissueCertificates()
	if len(z1.SANs) != 2 {
		t.Errorf("SANs grew on reissue: %v", z1.SANs)
	}
}

func hasSAN(sans []string, name string) bool {
	for _, s := range sans {
		if s == name {
			return true
		}
	}
	return false
}

func TestPhaseTransitionsMoveDNS(t *testing.T) {
	c := newTestCDN(1)
	z := c.AddZone("www.a.example", ip("104.18.0.1"))
	z.Treatment = TreatmentExperiment
	origZone, _ := c.Lookup("www.a.example")
	origThird, _ := c.Lookup(c.ThirdParty)

	c.EnterPhaseIP()
	za, _ := c.Lookup("www.a.example")
	ta, _ := c.Lookup(c.ThirdParty)
	if za[0] != ta[0] {
		t.Errorf("IP phase did not align addresses: %v vs %v", za, ta)
	}
	if !c.Reachable(c.ThirdParty, za[0]) || !c.Reachable("www.a.example", za[0]) {
		t.Error("aligned address not serving both hosts")
	}

	iso := ip("104.19.99.99")
	c.EnterPhaseOrigin(iso)
	zb, _ := c.Lookup("www.a.example")
	tb, _ := c.Lookup(c.ThirdParty)
	if zb[0] != iso {
		t.Errorf("zone not on isolated addr: %v", zb)
	}
	if tb[0] != origThird[0] {
		t.Errorf("third party DNS not reverted: %v vs %v", tb, origThird)
	}
	if !c.Reachable(c.ThirdParty, iso) {
		t.Error("isolated edge does not serve third party")
	}

	c.ExitExperiment()
	zc, _ := c.Lookup("www.a.example")
	if zc[0] != origZone[0] {
		t.Errorf("exit did not restore zone DNS: %v vs %v", zc, origZone)
	}
	if c.phase() != phaseBaseline {
		t.Errorf("phase = %v", c.phase())
	}
}

func TestOriginSetPerTreatmentAndPhase(t *testing.T) {
	c := newTestCDN(1)
	ze := c.AddZone("www.e.example", ip("104.18.0.1"))
	zc := c.AddZone("www.c.example", ip("104.18.0.2"))
	ze.Treatment = TreatmentExperiment
	zc.Treatment = TreatmentControl

	if got := c.OriginSet("www.e.example", ip("104.18.0.1")); got != nil {
		t.Errorf("origin set before origin phase: %v", got)
	}
	c.EnterPhaseOrigin(netip.Addr{})
	got := c.OriginSet("www.e.example", ip("104.18.0.1"))
	if len(got) != 1 || got[0] != c.ThirdParty {
		t.Errorf("experiment origin set = %v", got)
	}
	got = c.OriginSet("www.c.example", ip("104.18.0.2"))
	if len(got) != 1 || got[0] != c.ControlName {
		t.Errorf("control origin set = %v", got)
	}
	if c.OriginSet("unknown.example", ip("104.18.0.9")) != nil {
		t.Error("origin set for unknown zone")
	}
}

func TestLogPipelineSampling(t *testing.T) {
	lp := newLogPipeline(0.5, 1)
	for i := 0; i < 10000; i++ {
		lp.observeRecord(logRecord{ConnID: uint64(i)})
	}
	total, sampled := lp.Totals()
	if total != 10000 {
		t.Errorf("total = %d", total)
	}
	frac := float64(sampled) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("sampled fraction = %.3f, want ≈0.5", frac)
	}
	lp.reset()
	if total, sampled := lp.Totals(); total != 0 || sampled != 0 {
		t.Error("reset incomplete")
	}
}

func TestLogPipelineSetsFlagBit(t *testing.T) {
	lp := newLogPipeline(1, 1)
	lp.observeRecord(logRecord{ConnID: 1, SNI: "a", Host: "b"})
	lp.observeRecord(logRecord{ConnID: 2, SNI: "a", Host: "a"})
	recs := lp.records()
	if !recs[0].FlagHostNeSNI || recs[1].FlagHostNeSNI {
		t.Errorf("flag bits wrong: %+v", recs)
	}
}

func TestCountPassiveRules(t *testing.T) {
	third := "cdnjs.cloudflare.com"
	records := []logRecord{
		// Coalesced: flag bit + arrival ≥2, same conn twice (count once).
		{ConnID: 1, SNI: "site", Host: third, FlagHostNeSNI: true, ArrivalOrder: 2, Treatment: TreatmentExperiment},
		{ConnID: 1, SNI: "site", Host: third, FlagHostNeSNI: true, ArrivalOrder: 3, Treatment: TreatmentExperiment},
		// New conn to third party.
		{ConnID: 2, SNI: third, Host: third, ArrivalOrder: 1, Treatment: TreatmentControl},
		// Unrelated host ignored.
		{ConnID: 3, SNI: "x", Host: "x", ArrivalOrder: 1, Treatment: TreatmentControl},
		// Reconstructed after a telemetry restart: SNI == Host, but the
		// first sampled record is a reuse, so no new TLS connection, and
		// neither is its next record.
		{ConnID: 4, SNI: third, Host: third, ArrivalOrder: 2, Treatment: TreatmentControl},
		{ConnID: 4, SNI: third, Host: third, ArrivalOrder: 3, Treatment: TreatmentControl},
	}
	pc := countPassive(func(fn func(*logRecord)) {
		for i := range records {
			fn(&records[i])
		}
	}, third, "")
	if pc.CoalescedConns[TreatmentExperiment] != 1 {
		t.Errorf("coalesced = %v", pc.CoalescedConns)
	}
	if pc.NewTLSConns[TreatmentControl] != 1 {
		t.Errorf("new = %v", pc.NewTLSConns)
	}
}

// TestPassiveIPReduction reproduces the §5.2 headline: a ≈56% reduction
// in the rate of new TLS connections to the third party from the
// experiment group, across all browsers.
func TestPassiveIPReduction(t *testing.T) {
	c := newTestCDN(1) // sample every request for test precision
	cfg := DefaultExperimentConfig()
	cfg.SampleSize = 1200
	e := SetupExperiment(c, cfg)

	c.EnterPhaseIP()
	for day := 0; day < 5; day++ {
		e.runDay(day)
	}
	pc := countPassive(c.Pipeline().each, c.ThirdParty, "")
	red := pc.ReductionPct()
	t.Logf("IP-phase passive reduction = %.1f%% (paper: 56%%)", red)
	if red < 40 || red > 70 {
		t.Errorf("reduction = %.1f%%, want ≈56%%", red)
	}
	if pc.CoalescedConns[TreatmentExperiment] == 0 {
		t.Error("no coalesced connections observed")
	}
	if pc.CoalescedConns[TreatmentControl] != 0 {
		t.Errorf("control group coalesced %d connections", pc.CoalescedConns[TreatmentControl])
	}
}

// TestActiveMeasurementIPPhase reproduces Figure 7a's shape.
func TestActiveMeasurementIPPhase(t *testing.T) {
	c := newTestCDN(0.01)
	cfg := DefaultExperimentConfig()
	cfg.SampleSize = 2000
	e := SetupExperiment(c, cfg)
	c.EnterPhaseIP()
	ctl, exp := e.ActiveMeasurement()

	zeroFrac := frac(ctl, 0)
	oneFrac := frac(ctl, 1)
	t.Logf("7a control: zero=%.2f one=%.2f | experiment: zero=%.2f one=%.2f",
		zeroFrac, oneFrac, frac(exp, 0), frac(exp, 1))
	// Control: ≈9% zero (churn), ≈83% one.
	if zeroFrac < 0.02 || zeroFrac > 0.15 {
		t.Errorf("control zero fraction = %.2f, paper ≈0.09", zeroFrac)
	}
	if oneFrac < 0.65 || oneFrac > 0.90 {
		t.Errorf("control one fraction = %.2f, paper ≈0.83", oneFrac)
	}
	// Experiment: ≈70% zero.
	if z := frac(exp, 0); z < 0.55 || z > 0.85 {
		t.Errorf("experiment zero fraction = %.2f, paper ≈0.70", z)
	}
	if maxInt(exp) > maxInt(ctl) {
		t.Errorf("experiment max (%d) exceeds control max (%d)", maxInt(exp), maxInt(ctl))
	}
}

// TestActiveMeasurementOriginPhase reproduces Figure 7b's shape.
func TestActiveMeasurementOriginPhase(t *testing.T) {
	c := newTestCDN(0.01)
	cfg := DefaultExperimentConfig()
	cfg.SampleSize = 2000
	e := SetupExperiment(c, cfg)
	c.EnterPhaseOrigin(ip("104.19.99.99"))
	ctl, exp := e.ActiveMeasurement()

	t.Logf("7b control: zero=%.2f one=%.2f | experiment: zero=%.2f one=%.2f",
		frac(ctl, 0), frac(ctl, 1), frac(exp, 0), frac(exp, 1))
	// Experiment: ≈64% zero, ≈33% one; none above 4.
	if z := frac(exp, 0); z < 0.50 || z > 0.80 {
		t.Errorf("experiment zero fraction = %.2f, paper ≈0.64", z)
	}
	// Control stays ≈6% zero, ≈84% one.
	if z := frac(ctl, 0); z < 0.02 || z > 0.15 {
		t.Errorf("control zero fraction = %.2f, paper ≈0.06", z)
	}
	// Control zero-connection visits come only from churned sites: the
	// control origin set names the unused control domain, so nothing
	// coalesces.
	churned := 0
	for _, z := range e.SampleZones {
		if z.Treatment == TreatmentControl && z.Churned {
			churned++
		}
	}
	zeroCtl := 0
	for _, v := range ctl {
		if v == 0 {
			zeroCtl++
		}
	}
	if zeroCtl != churned {
		t.Errorf("control zero-conn sites = %d, churned control sites = %d", zeroCtl, churned)
	}
}

// TestLongitudinalOriginDeployment reproduces Figure 8: during the
// two-week ORIGIN deployment the experiment group's new TLS connections
// drop to roughly half of control, and recover afterwards.
func TestLongitudinalOriginDeployment(t *testing.T) {
	c := newTestCDN(1)
	cfg := DefaultExperimentConfig()
	cfg.SampleSize = 600
	e := SetupExperiment(c, cfg)

	const total, start, end = 28, 7, 21
	ctl, exp := e.Longitudinal(total, start, end, PhaseOrigin, ip("104.19.99.99"), "firefox")

	before := exp.Mean(0, start) / nonZero(ctl.Mean(0, start))
	during := exp.Mean(start, end) / nonZero(ctl.Mean(start, end))
	after := exp.Mean(end, total) / nonZero(ctl.Mean(end, total))
	t.Logf("exp/ctl ratio: before=%.2f during=%.2f after=%.2f", before, during, after)

	if before < 0.75 || before > 1.3 {
		t.Errorf("pre-deployment ratio = %.2f, want ≈1", before)
	}
	if during > 0.7 {
		t.Errorf("deployment ratio = %.2f, want ≈0.5 (paper: ~50%% reduction)", during)
	}
	if after < 0.75 || after > 1.3 {
		t.Errorf("post-deployment ratio = %.2f, want ≈1", after)
	}
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

func frac(xs []int, v int) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x == v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestVisitChromeIPPhaseCoalesces(t *testing.T) {
	// Chromium coalesces in the IP phase (exact address match) — the
	// §5.2 result held across all browsers.
	c := newTestCDN(0.01)
	cfg := DefaultExperimentConfig()
	cfg.SampleSize = 50
	e := SetupExperiment(c, cfg)
	c.EnterPhaseIP()
	visited := 0
	for _, z := range e.SampleZones {
		// Anonymous and churned zones never coalesce their third party.
		if z.Treatment != TreatmentExperiment || z.ThirdPartyPools != 1 || z.UsesAnonymousFetch || z.Churned {
			continue
		}
		visited++
		res := e.Visit(z, "chrome", -1)
		if res.CoalescedPools != 1 || res.NewThirdParty != 0 {
			t.Fatalf("chrome IP-phase visit: %+v", res)
		}
	}
	if visited == 0 {
		t.Fatal("no experiment zone with one credentialed pool to visit")
	}
}

func TestVisitChromeOriginPhaseDoesNotCoalesce(t *testing.T) {
	// Chromium has no ORIGIN support: nothing coalesces once DNS
	// reverts, even for experiment zones.
	c := newTestCDN(0.01)
	cfg := DefaultExperimentConfig()
	cfg.SampleSize = 50
	e := SetupExperiment(c, cfg)
	c.EnterPhaseOrigin(ip("104.19.99.99"))
	visited := 0
	for _, z := range e.SampleZones {
		// Anonymous and churned zones would not coalesce anyway.
		if z.Treatment != TreatmentExperiment || z.UsesAnonymousFetch || z.Churned {
			continue
		}
		visited++
		res := e.Visit(z, "chrome", -1)
		if res.CoalescedPools != 0 {
			t.Fatalf("chrome coalesced via ORIGIN: %+v", res)
		}
	}
	if visited == 0 {
		t.Fatal("no credentialed experiment zone to visit")
	}
}

// The UA cutoff between Chrome and legacy clients is the float64 sum of
// the two shares, 0.7999999999999999, which every recorded deployment
// and loadgen run drew against; untyped constants would fold it to 0.8.
func TestUAFamilyCutoffs(t *testing.T) {
	const cutoff = 0.7999999999999999
	if sum := firefoxShare + chromeShare; sum != cutoff {
		t.Errorf("firefoxShare+chromeShare = %v, want %v", sum, cutoff)
	}
	for _, c := range []struct {
		x    float64
		want int
	}{
		{0, UAFirefox},
		{math.Nextafter(0.08, 0), UAFirefox},
		{0.08, UAChrome},
		{math.Nextafter(cutoff, 0), UAChrome},
		{cutoff, uaLegacy},
		{0.8, uaLegacy},
		{math.Nextafter(1, 0), uaLegacy},
	} {
		if got := UAFamily(c.x); got != c.want {
			t.Errorf("UAFamily(%v) = %s, want %s", c.x, uaFamilies[got], uaFamilies[c.want])
		}
	}
}

func TestSampleSelectionRemovesSubpageOnly(t *testing.T) {
	c := newTestCDN(0.01)
	cfg := DefaultExperimentConfig()
	cfg.SampleSize = 5000
	e := SetupExperiment(c, cfg)
	removedFrac := float64(e.Removed) / float64(cfg.SampleSize)
	if removedFrac < 0.19 || removedFrac > 0.25 {
		t.Errorf("removed fraction = %.3f, paper 0.22", removedFrac)
	}
	if len(e.SampleZones)+e.Removed != cfg.SampleSize {
		t.Error("zone accounting wrong")
	}
}

func TestBrowserEnvironmentInterface(t *testing.T) {
	var _ browser.Environment = (*CDN)(nil)
}

func TestPhaseStrings(t *testing.T) {
	if phaseBaseline.String() != "baseline" || PhaseIP.String() != "ip-coalescing" ||
		PhaseOrigin.String() != "origin-frame" || Phase(9).String() != "unknown" {
		t.Error("phase strings")
	}
	if TreatmentControl.String() != "control" || TreatmentExperiment.String() != "experiment" ||
		treatmentNone.String() != "none" {
		t.Error("treatment strings")
	}
}

func TestMeasureSeriesIntegration(t *testing.T) {
	s := measure.Series{Values: []float64{2, 4}}
	if s.Mean(0, 2) != 3 {
		t.Error("series mean")
	}
}

// An anonymous request's connection is neither pooled by the browser
// nor kept in the visit's connTable. So a credentialed pool after an
// anonymous one logs a fresh connection at arrival order 1, and a
// credentialed pool after a credentialed one rides that pool's
// connection, never the anonymous one. The zone is a control zone at
// baseline, whose certificate does not cover the third party.
func TestAnonymousPoolsStayOutOfTheConnTable(t *testing.T) {
	type rec struct {
		conn  uint64
		order int
	}
	cases := []struct {
		name     string
		anon     []bool // per pool
		want     []rec  // the third-party records; the zone's is ConnID 1
		newConns int
	}{
		{"credentialed after anonymous", []bool{true, false}, []rec{{2, 1}, {3, 1}}, 2},
		{"credentialed after credentialed and anonymous", []bool{false, true, false},
			[]rec{{2, 1}, {3, 1}, {2, 2}}, 2},
	}
	for _, c := range cases {
		// Pool 0 follows the zone's habit; each further pool draws a coin
		// from the experiment's stream, the only draws a baseline visit
		// takes from it. Find a seed whose coins give the case's pools.
		seed := int64(1)
		for ; ; seed++ {
			rng, match := lazyrand.New(seed), true
			for _, a := range c.anon[1:] {
				match = match && (rng.Float64() < 0.5) == a
			}
			if match {
				break
			}
		}
		for _, ua := range []string{"chrome", "firefox"} {
			cdn := newTestCDN(1)
			z := cdn.AddZone("www.a.example", ip("104.18.0.1"))
			z.Treatment, z.UsesAnonymousFetch, z.ThirdPartyPools = TreatmentControl, c.anon[0], len(c.anon)
			cdn.ReissueCertificates()
			e := &Experiment{CDN: cdn, env: cdn, clients: newClients(0, 0), rng: lazyrand.New(seed)}
			res := e.Visit(z, ua, 0)
			var got []rec
			for _, r := range cdn.Pipeline().records()[1:] {
				got = append(got, rec{r.ConnID, r.ArrivalOrder})
			}
			if !slices.Equal(got, c.want) || res.NewThirdParty != c.newConns {
				t.Errorf("%s, %s: third-party records (conn, order) %v, want %v; %+v", c.name, ua, got, c.want, res)
			}
		}
	}
}

// zoneSnapshot returns all zones sorted by host.
func (c *CDN) zoneSnapshot() []*Zone {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Zone, 0, len(c.zones))
	for _, z := range c.zones {
		out = append(out, z)
	}
	// Hosts are the c.zones map keys, so they are distinct and the
	// unstable sort is total: the result is independent of both map
	// iteration order and zone registration order.
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// records returns a copy of the records the log holds: those sampled
// since the last Reset or drain.
func (lp *LogPipeline) records() []logRecord {
	lp.mu.Lock()
	n := lp.held
	lp.mu.Unlock()
	out := make([]logRecord, 0, n)
	lp.each(func(r *logRecord) { out = append(out, *r) })
	return out
}
