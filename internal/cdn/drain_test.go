package cdn

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime/metrics"
	"slices"
	"testing"
	"unsafe"

	"respectorigin/internal/faults"
)

// wholeLogDays is the day loop the §5 tallies ran before they drained
// each day: every day of the window goes through RunDay, and the log
// keeps them all.
func wholeLogDays(e *Experiment, total, phaseStart, phaseEnd int, phase Phase, isolated netip.Addr) {
	e.CDN.Pipeline().reset()
	for day := 0; day < total; day++ {
		if day == phaseStart {
			switch phase {
			case PhaseIP:
				e.CDN.EnterPhaseIP()
			case PhaseOrigin:
				e.CDN.EnterPhaseOrigin(isolated)
			}
		}
		if day == phaseEnd {
			e.CDN.ExitExperiment()
		}
		e.runDay(day)
	}
	e.CDN.ExitExperiment()
}

// wholeLogSeries folds a whole log once into Figure 8's per-day series,
// with a map for the seen connections: the reference Longitudinal's
// drained tally is held to.
func wholeLogSeries(c *CDN, total int, uaFilter string) (control, experiment []float64) {
	control, experiment = make([]float64, total), make([]float64, total)
	seen := map[uint64]bool{}
	for _, r := range c.Pipeline().records() {
		if r.Host != c.ThirdParty || uaFilter != "" && r.UserAgent != uaFilter || r.FlagHostNeSNI {
			continue
		}
		first := !seen[r.ConnID]
		seen[r.ConnID] = true
		if !first || r.ArrivalOrder != 1 {
			continue
		}
		switch r.Treatment {
		case TreatmentControl:
			control[r.Day]++
		case TreatmentExperiment:
			experiment[r.Day]++
		}
	}
	return control, experiment
}

// wholeLogPassive folds a whole log once with the §5.2 rules, with maps
// for the seen connections: the reference PassiveIP's drained tally is
// held to.
func wholeLogPassive(c *CDN) PassiveCounts {
	pc := PassiveCounts{NewTLSConns: map[Treatment]int{}, CoalescedConns: map[Treatment]int{}}
	seenNew, seenCoal := map[uint64]bool{}, map[uint64]bool{}
	for _, r := range c.Pipeline().records() {
		switch {
		case r.Host != c.ThirdParty:
		case r.FlagHostNeSNI && r.ArrivalOrder >= 2:
			if !seenCoal[r.ConnID] {
				seenCoal[r.ConnID] = true
				pc.CoalescedConns[r.Treatment]++
			}
		case r.FlagHostNeSNI:
		case !seenNew[r.ConnID]:
			seenNew[r.ConnID] = true
			if r.ArrivalOrder == 1 {
				pc.NewTLSConns[r.Treatment]++
			}
		}
	}
	return pc
}

// drainPlans are the two ways a day runs: planned (no faults), and on
// Visit's loop, whose records go through lockedAppend, under resets and
// telemetry restarts.
var drainPlans = []struct {
	name string
	plan faults.Plan
}{
	{"planned", faults.Plan{}},
	{"faulted", faults.Plan{ResetProb: 0.05, LogRestartProb: 0.1}},
}

func newDrainExperiment(zones int, rate float64, plan faults.Plan) *Experiment {
	c := New(Config{SampleRate: rate, Seed: 13})
	cfg := DefaultExperimentConfig()
	cfg.SampleSize, cfg.Seed, cfg.Faults, cfg.FaultRetries = zones, 13, plan, 1
	return SetupExperiment(c, cfg)
}

// Longitudinal and PassiveIP fold each day's records as the day closes
// and then rewind the log. The fold must see what one walk over the
// whole log sees, in the same order, so their tallies equal the whole-log
// reference run on a twin experiment: same seed, same days, same windows,
// every day through RunDay. The windows run 7 days and the passive count
// 4, so a loop that skipped the drain on odd or on even days would leave
// a last day unfolded.
func TestDrainedTalliesMatchWholeLog(t *testing.T) {
	isolated := ip("104.19.99.99")
	const total, start, end, passiveDays = 7, 2, 5, 4
	windows := []struct {
		phase    Phase
		uaFilter string
	}{
		{PhaseIP, ""}, {PhaseIP, "firefox"}, {PhaseOrigin, ""}, {PhaseOrigin, "firefox"},
	}
	for _, rate := range []float64{1, 0.01} {
		for _, p := range drainPlans {
			name := fmt.Sprintf("rate %v, %s", rate, p.name)
			drained, twin := newDrainExperiment(600, rate, p.plan), newDrainExperiment(600, rate, p.plan)
			counted := 0.0
			for _, w := range windows {
				ctl, exp := drained.Longitudinal(total, start, end, w.phase, isolated, w.uaFilter)
				wholeLogDays(twin, total, start, end, w.phase, isolated)
				wantCtl, wantExp := wholeLogSeries(twin.CDN, total, w.uaFilter)
				if !slices.Equal(ctl.Values, wantCtl) || !slices.Equal(exp.Values, wantExp) {
					t.Errorf("%s, %v window, uaFilter %q: drained series control %v, experiment %v; the whole log gives %v, %v",
						name, w.phase, w.uaFilter, ctl.Values, exp.Values, wantCtl, wantExp)
				}
				for day := range ctl.Values {
					counted += ctl.Values[day] + exp.Values[day]
				}
			}
			pc := drained.PassiveIP(passiveDays)
			wholeLogDays(twin, passiveDays, 0, passiveDays, PhaseIP, netip.Addr{})
			if want := wholeLogPassive(twin.CDN); !reflect.DeepEqual(pc, want) {
				t.Errorf("%s: drained passive counts %+v; the whole log gives %+v", name, pc, want)
			}
			if counted == 0 || pc.NewTLSConns[TreatmentControl] == 0 {
				t.Errorf("%s: the windows counted %v connections and the passive count %+v; the comparison is vacuous", name, counted, pc)
			}
		}
	}
}

// largeAllocs counts the heap objects allocated so far in the runtime's
// largest size bucket, which holds a log block (40 KiB) and no object a
// deployment day allocates per visit.
func largeAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	metrics.Read(s)
	counts := s[0].Value.Float64Histogram().Counts
	return counts[len(counts)-1]
}

// A drained deployment holds one day of the log at a time, and refills
// the blocks the day before it held. At SampleRate 1 a 16-day window
// holds at most as many blocks as its largest day fills, and allocates
// at most one large object (a block) more than a 4-day window: a later
// day may log a few records more than any before it. Totals still
// counts every day, as a twin run that keeps the whole log does.
func TestLongitudinalLogHoldsOneDay(t *testing.T) {
	if logBlockRecords*unsafe.Sizeof(logEntry{}) <= 32<<10 {
		t.Fatal("a log block no longer falls in the runtime's largest size bucket; count block allocations another way")
	}
	isolated := ip("104.19.99.99")
	run := func(plan faults.Plan, total int) (large uint64, lp *LogPipeline) {
		e := newDrainExperiment(500, 1, plan)
		before := largeAllocs()
		e.Longitudinal(total, total/4, total*3/4, PhaseOrigin, isolated, "firefox")
		return largeAllocs() - before, e.CDN.Pipeline()
	}
	for _, p := range drainPlans {
		const total = 16
		twin := newDrainExperiment(500, 1, p.plan)
		wholeLogDays(twin, total, total/4, total*3/4, PhaseOrigin, isolated)
		perDay := make([]int, total)
		for _, r := range twin.CDN.Pipeline().records() {
			perDay[r.Day]++
		}
		largest := slices.Max(perDay)

		large, lp := run(p.plan, total)
		short, _ := run(p.plan, 4)
		blocks := len(lp.blocks)
		t.Logf("%s: largest day %d records; 16 days hold %d blocks and made %d large allocations, 4 days %d",
			p.name, largest, blocks, large, short)
		if most := (largest + logBlockRecords - 1) / logBlockRecords; blocks > most {
			t.Errorf("%s: 16 days hold %d blocks; the largest day, %d records, fills %d", p.name, blocks, largest, most)
		}
		if large > short+1 {
			t.Errorf("%s: 16 days made %d large allocations, 4 days %d; want at most one more", p.name, large, short)
		}
		gotTotal, gotSampled := lp.Totals()
		wantTotal, wantSampled := twin.CDN.Pipeline().Totals()
		if gotTotal != wantTotal || gotSampled != wantSampled {
			t.Errorf("%s: Totals after the drained run are %d, %d; the whole log's are %d, %d",
				p.name, gotTotal, gotSampled, wantTotal, wantSampled)
		}
		if len(lp.records()) != 0 {
			t.Errorf("%s: the log holds %d records after the last day was drained", p.name, len(lp.records()))
		}
	}
}
