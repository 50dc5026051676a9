package cdn

import (
	"fmt"
	"testing"

	"respectorigin/internal/faults"
	"respectorigin/internal/measure"
	"respectorigin/internal/obs"
)

// newFaultedExperiment builds a full-sampling experiment under a plan.
func newFaultedExperiment(sample int, seed int64, plan faults.Plan, retries int) (*CDN, *Experiment) {
	c := New(Config{SampleRate: 1, Seed: seed})
	cfg := DefaultExperimentConfig()
	cfg.SampleSize = sample
	cfg.Seed = seed
	cfg.Faults = plan
	cfg.FaultRetries = retries
	return c, SetupExperiment(c, cfg)
}

func longitudinalSeries(seed int64, plan faults.Plan, total, start, end int) (measure.Series, measure.Series) {
	_, e := newFaultedExperiment(300, seed, plan, 1)
	return e.Longitudinal(total, start, end, PhaseOrigin, ip("104.19.99.99"), "")
}

// TestLongitudinalZeroLengthWindow is the regression test for the
// phase-transition bug: with phaseStart == phaseEnd the deployment must
// enter and immediately exit on that day, leaving every day at baseline
// — not stick in the ORIGIN phase for the rest of the run.
func TestLongitudinalZeroLengthWindow(t *testing.T) {
	const total = 8
	ctlZero, expZero := longitudinalSeries(3, faults.Plan{}, total, 4, 4)
	// phaseStart beyond the run: the phase never activates at all.
	ctlBase, expBase := longitudinalSeries(3, faults.Plan{}, total, total, total)
	for day := 0; day < total; day++ {
		if ctlZero.Values[day] != ctlBase.Values[day] || expZero.Values[day] != expBase.Values[day] {
			t.Errorf("day %d: zero-length window (ctl %v, exp %v) != baseline (ctl %v, exp %v)",
				day, ctlZero.Values[day], expZero.Values[day], ctlBase.Values[day], expBase.Values[day])
		}
	}
	// Sanity: a real window does move the experiment series.
	_, expReal := longitudinalSeries(3, faults.Plan{}, total, 2, 6)
	if expReal.Mean(2, 6) >= expBase.Mean(2, 6) {
		t.Errorf("real deployment window did not reduce experiment conns: %v vs baseline %v",
			expReal.Mean(2, 6), expBase.Mean(2, 6))
	}
}

// TestVisitLogRecordInvariants pins the log-record contract the §5.2
// counting rules depend on: under a zero fault plan with full sampling,
// each connection's arrival orders are exactly 1, 2, 3, ... in log
// order, and a coalesced record (Host ≠ SNI) is never a connection's
// first arrival.
func TestVisitLogRecordInvariants(t *testing.T) {
	c, e := newFaultedExperiment(200, 5, faults.Plan{}, 0)
	c.EnterPhaseOrigin(ip("104.19.99.99"))
	for day := 0; day < 3; day++ {
		e.runDay(day)
	}
	c.ExitExperiment()

	orders := map[uint64][]int{}
	coalesced := 0
	for _, r := range c.Pipeline().records() {
		orders[r.ConnID] = append(orders[r.ConnID], r.ArrivalOrder)
		if r.FlagHostNeSNI {
			coalesced++
			if r.ArrivalOrder < 2 {
				t.Errorf("coalesced record on conn %d at arrival order %d; must ride an existing connection",
					r.ConnID, r.ArrivalOrder)
			}
		}
	}
	if coalesced == 0 {
		t.Fatal("no coalesced records observed; invariant test is vacuous")
	}
	for id, seq := range orders {
		if seq[0] != 1 {
			t.Errorf("conn %d first sampled order = %d, want 1", id, seq[0])
		}
		for i := 1; i < len(seq); i++ {
			if seq[i] != seq[i-1]+1 {
				t.Errorf("conn %d arrival orders not consecutive: %v", id, seq)
				break
			}
		}
	}
}

// TestFaultedDeploymentDeterminism: the injector draws on its own
// seeded stream, so two same-seed deployments under the same plan are
// byte-identical — and a different seed is not.
func TestFaultedDeploymentDeterminism(t *testing.T) {
	plan := faults.Plan{ResetProb: 0.05, DNSFailProb: 0.01, GoAwayProb: 0.02, LossPct: 2}
	run := func(seed int64) string {
		_, e := newFaultedExperiment(250, seed, plan, 1)
		ctl, exp := e.Longitudinal(6, 1, 5, PhaseOrigin, ip("104.19.99.99"), "")
		return fmt.Sprint(ctl.Values, exp.Values, e.Injector().Report())
	}
	a, b := run(9), run(9)
	if a != b {
		t.Errorf("same seed, different runs:\n%s\nvs\n%s", a, b)
	}
	if run(10) == a {
		t.Error("different seeds produced identical faulted runs")
	}
}

// TestLogRestartDefensivePath forces telemetry restarts on every pool
// request, which mints reconstructed connection state in observeOutcome
// (first sampled record at arrival order ≥ 2) — and checks that both
// §5.2 tallies, Longitudinal's and countPassive's, skip exactly those
// connections. Longitudinal drains each day's records as the day
// closes, so the recount reads a twin that keeps the whole log: the same
// seed and plan, the same days and window, every day through RunDay.
func TestLogRestartDefensivePath(t *testing.T) {
	plan := faults.Plan{LogRestartProb: 1}
	_, e := newFaultedExperiment(150, 11, plan, 0)
	ctl, exp := e.Longitudinal(4, 1, 3, PhaseOrigin, ip("104.19.99.99"), "")
	_, twin := newFaultedExperiment(150, 11, plan, 0)
	wholeLogDays(twin, 4, 1, 3, PhaseOrigin, ip("104.19.99.99"))
	log := twin.CDN.Pipeline()

	counted := 0
	for day := 0; day < 4; day++ {
		counted += int(ctl.Values[day]) + int(exp.Values[day])
	}

	// Recount from the surviving records with the same qualifying rules.
	first := map[uint64]int{}
	for _, r := range log.records() {
		if r.Host != twin.CDN.ThirdParty || r.FlagHostNeSNI {
			continue
		}
		if _, ok := first[r.ConnID]; !ok {
			first[r.ConnID] = r.ArrivalOrder
		}
	}
	opened, reconstructed := 0, 0
	for _, order := range first {
		if order == 1 {
			opened++
		} else {
			reconstructed++
		}
	}
	if reconstructed == 0 {
		t.Fatal("log-restart plan never exercised the reconstructed-connection path")
	}
	if counted != opened {
		t.Errorf("§5.2 tally counted %d conns, want %d (the %d reconstructed conns must be excluded)",
			counted, opened, reconstructed)
	}
	pc := countPassive(log.each, twin.CDN.ThirdParty, "")
	if got := pc.NewTLSConns[TreatmentControl] + pc.NewTLSConns[TreatmentExperiment]; got != opened {
		t.Errorf("countPassive counted %d new TLS conns, want %d (the %d reconstructed conns must be excluded)",
			got, opened, reconstructed)
	}
}

// TestRecorderDoesNotPerturbDeployment is the byte-identity guarantee
// at the unit level: the same faulted deployment day run with and
// without a recorder must emit identical log records and visit results.
func TestRecorderDoesNotPerturbDeployment(t *testing.T) {
	type day struct {
		results []VisitResult
		log     []logRecord
	}
	runDay := func(rec obs.Recorder) day {
		c, e := newFaultedExperiment(120, 5, faults.Plan{ResetProb: 0.03}, 1)
		e.Rec = rec
		var d day
		uas := []string{"firefox", "chrome", "legacy"}
		for _, z := range e.SampleZones {
			for v := 0; v < visitsPerZonePerDay; v++ {
				d.results = append(d.results, e.Visit(z, uas[v%len(uas)], 0))
			}
		}
		d.log = c.Pipeline().records()
		return d
	}
	plain := runDay(nil)
	traced := runDay(obs.Multi(obs.NewTrace(), obs.NewMetrics()))
	if len(plain.log) == 0 {
		t.Fatal("the day logged nothing")
	}
	if len(plain.log) != len(traced.log) || len(plain.results) != len(traced.results) {
		t.Fatalf("%d records and %d visits, traced %d and %d", len(plain.log), len(plain.results), len(traced.log), len(traced.results))
	}
	for i := range plain.log {
		if plain.log[i] != traced.log[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, plain.log[i], traced.log[i])
		}
	}
	for i := range plain.results {
		if plain.results[i] != traced.results[i] {
			t.Fatalf("visit %d differs: %+v vs %+v", i, plain.results[i], traced.results[i])
		}
	}
}
