package cdn

import (
	"fmt"
	"net/netip"
	"testing"

	"respectorigin/internal/obs"
)

// A planned day logs what the visit loop logs. A recorder-on run takes
// the visit loop and a recorder-off run the planned day; their logs must
// match record for record, ConnIDs included, and so must Totals, at both
// sample rates, in every phase and at every worker count. An active
// measurement between the days advances the record sequence on the
// visit loop for both.
func TestPlannedDayMatchesVisitLoop(t *testing.T) {
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
	type run struct {
		log            []logRecord
		total, sampled int64
	}
	deploy := func(rate float64, enter func(*CDN), rec obs.Recorder, workers int) run {
		c := New(Config{SampleRate: rate, Seed: 7})
		cfg := DefaultExperimentConfig()
		cfg.SampleSize, cfg.Seed, cfg.Workers = 300, 3, workers
		e := SetupExperiment(c, cfg)
		e.Rec = rec
		enter(c)
		e.runDay(0)
		e.ActiveMeasurement()
		e.runDay(1)
		e.runDay(2)
		total, sampled := c.Pipeline().Totals()
		return run{c.Pipeline().records(), total, sampled}
	}
	for _, rate := range []float64{1, 0.01} {
		for _, phase := range phases {
			want := deploy(rate, phase.enter, obs.NewMetrics(), 1)
			if want.sampled == 0 {
				t.Fatalf("rate %v, %s: the visit loop sampled nothing", rate, phase.name)
			}
			for _, workers := range []int{1, 4, 16} {
				name := fmt.Sprintf("rate %v, %s, %d workers", rate, phase.name, workers)
				got := deploy(rate, phase.enter, nil, workers)
				if got.total != want.total || got.sampled != want.sampled || len(got.log) != len(want.log) {
					t.Fatalf("%s: Totals %d, %d and %d records; the visit loop gives %d, %d and %d",
						name, got.total, got.sampled, len(got.log), want.total, want.sampled, len(want.log))
				}
				for i := range want.log {
					if got.log[i] != want.log[i] {
						t.Fatalf("%s: record %d is %+v; the visit loop logs %+v", name, i, got.log[i], want.log[i])
					}
				}
			}
		}
	}
}
