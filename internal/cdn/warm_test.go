package cdn

import (
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
)

// TestExperimentWarmColdRevisitsCheaper checks the deployment-side
// warm/cold measurement: returning visits pay strictly less in DNS
// queries, full handshakes, and validations, demand stays fixed across
// visits (the exact-decomposition precondition), and the pass is
// deterministic — a rerun on a fresh identical experiment matches
// field for field.
func TestExperimentWarmColdRevisitsCheaper(t *testing.T) {
	setup := func() *Experiment {
		c := newTestCDN(0.01)
		cfg := DefaultExperimentConfig()
		cfg.SampleSize = 500
		e := SetupExperiment(c, cfg)
		c.EnterPhaseIP()
		return e
	}
	e := setup()
	costs := e.WarmColdProto(3, cache.Options{}, core.ProtoH2)
	if len(costs) != 3 {
		t.Fatalf("visits = %d", len(costs))
	}
	cold := costs[0]
	if cold.DNSQueries == 0 || cold.FullHandshakes == 0 || cold.Validations == 0 {
		t.Fatalf("cold visit empty: %+v", cold)
	}
	for v, warm := range costs[1:] {
		if warm.DNSQueries >= cold.DNSQueries {
			t.Errorf("visit %d DNS queries %d not below cold %d", v+2, warm.DNSQueries, cold.DNSQueries)
		}
		if warm.FullHandshakes >= cold.FullHandshakes {
			t.Errorf("visit %d handshakes %d not below cold %d", v+2, warm.FullHandshakes, cold.FullHandshakes)
		}
		if warm.Validations >= cold.Validations {
			t.Errorf("visit %d validations %d not below cold %d", v+2, warm.Validations, cold.Validations)
		}
		if !warm.Consistent() {
			t.Errorf("visit %d ledger inconsistent: %+v", v+2, warm)
		}
		if warm.LookupsNeeded() != cold.LookupsNeeded() || warm.ConnsNeeded != cold.ConnsNeeded {
			t.Errorf("visit %d demand drifted from cold: %+v vs %+v", v+2, warm, cold)
		}
	}
	again := setup().WarmColdProto(3, cache.Options{}, core.ProtoH2)
	for v := range costs {
		if costs[v] != again[v] {
			t.Errorf("rerun visit %d differs: %+v vs %+v", v+1, costs[v], again[v])
		}
	}
}

// TestExperimentWarmColdLeavesMeasurementsUntouched checks the no-side-
// effect contract: running WarmCold between two active measurements
// leaves the second identical to a run without it.
func TestExperimentWarmColdLeavesMeasurementsUntouched(t *testing.T) {
	run := func(withWarm bool) ([]int, []int) {
		c := newTestCDN(0.01)
		cfg := DefaultExperimentConfig()
		cfg.SampleSize = 500
		e := SetupExperiment(c, cfg)
		c.EnterPhaseIP()
		if withWarm {
			e.WarmColdProto(2, cache.Options{}, core.ProtoH2)
		}
		return e.ActiveMeasurement()
	}
	ctl1, exp1 := run(false)
	ctl2, exp2 := run(true)
	if len(ctl1) != len(ctl2) || len(exp1) != len(exp2) {
		t.Fatalf("measurement sizes differ")
	}
	for i := range ctl1 {
		if ctl1[i] != ctl2[i] {
			t.Fatalf("control[%d] differs: %d vs %d", i, ctl1[i], ctl2[i])
		}
	}
	for i := range exp1 {
		if exp1[i] != exp2[i] {
			t.Fatalf("experiment[%d] differs: %d vs %d", i, exp1[i], exp2[i])
		}
	}
}
