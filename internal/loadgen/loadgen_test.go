package loadgen

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// testConfig is a small-but-representative run: enough users for the
// warm paths, churn, and queueing to all engage.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Users = 4000
	cfg.RatePerSec = 400
	cfg.Zones = 16
	cfg.PoPs = 4
	cfg.PoPServers = 4
	cfg.RevisitMeanSec = 120
	cfg.IdleTimeoutSec = 60
	return cfg
}

func TestRunByteIdenticalAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		cfg := testConfig()
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, res); err != nil {
			t.Fatalf("workers=%d: WriteNDJSON: %v", workers, err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d summary differs:\n got %s\nwant %s", workers, buf.Bytes(), want)
		}
	}
}

// TestRunAllocBudget holds the whole open-loop run (the parallel user
// simulation, then the queueing pass) to an allocation budget per
// simulated visit. A warm Run at the default configuration, 2 000 users
// and two workers, measures 0.18 objects and 0.19–0.22 KiB a visit
// (0.21–0.22 objects under -race; the openloop-serve workload, at
// 20 000 users, 0.019 and 0.17): what is left is the run's fixed cost
// (the CDN, each worker's scratch), the visit blocks (120 B a visit and
// each worker's unfilled tail) and the queueing pass's keys and
// latencies (24 B a visit). The budgets have about 20 %
// headroom; one more object per ten visits fails them, as a churned
// connection, a zone name or a user's visit slice allocated again would.
func TestRunAllocBudget(t *testing.T) {
	const allocsBudget, kibBudget = 0.27, 0.27
	cfg := DefaultConfig()
	cfg.Users = 2000
	cfg.Workers = 2
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(res.Visits)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(res.Visits)
	if allocs > allocsBudget || kib > kibBudget {
		t.Errorf("a warm Run allocates %.2f objects and %.3f KiB a visit, want ≤ %.2f and ≤ %.2f KiB", allocs, kib, allocsBudget, kibBudget)
	} else {
		t.Logf("%.2f objects and %.3f KiB a visit over %d visits", allocs, kib, res.Visits)
	}
}

func TestPoissonEmpiricalRate(t *testing.T) {
	// Property: the empirical arrival rate of the Poisson schedule
	// matches λ. With n exponential gaps the last arrival is Gamma(n,
	// 1/λ) with relative sd 1/√n, so 5% tolerance at n = 20000 is > 7σ.
	for _, lambda := range []float64{50, 500, 5000} {
		cfg := DefaultConfig()
		cfg.Users = 20000
		cfg.RatePerSec = lambda
		ts := cfg.withDefaults().arrivalTimes()
		if len(ts) != cfg.Users {
			t.Fatalf("λ=%g: got %d arrivals, want %d", lambda, len(ts), cfg.Users)
		}
		empirical := float64(len(ts)) / (ts[len(ts)-1] / 1000)
		if math.Abs(empirical-lambda)/lambda > 0.05 {
			t.Errorf("λ=%g: empirical rate %.1f departs more than 5%%", lambda, empirical)
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatalf("λ=%g: arrivals not strictly increasing at %d", lambda, i)
			}
		}
	}
}

func TestModulatedArrivalsShapeTheRate(t *testing.T) {
	// Flash crowd: the window around the burst must be denser than the
	// same-width window well before it.
	// The burst is centred at 120 s, 30 s wide, 8× at its peak.
	cfg := DefaultConfig()
	cfg.Users = 60000
	cfg.Arrival = ArrivalFlash
	cfg.RatePerSec = 100
	ts := cfg.withDefaults().arrivalTimes()
	inWindow := func(loSec, hiSec float64) int {
		n := 0
		for _, t := range ts {
			if t >= loSec*1000 && t < hiSec*1000 {
				n++
			}
		}
		return n
	}
	burst := inWindow(90, 150)
	calm := inWindow(0, 60)
	if burst < 3*calm {
		t.Errorf("flash burst window has %d arrivals vs %d calm — burst not expressed", burst, calm)
	}

	// Diurnal: t=0 is the trough, half the 3 600 s period later is the
	// peak, five times the trough's rate.
	cfg = DefaultConfig()
	cfg.Users = 130_000
	cfg.Arrival = arrivalDiurnal
	cfg.RatePerSec = 100
	ts = cfg.withDefaults().arrivalTimes()
	trough := 0
	peak := 0
	for _, tt := range ts {
		switch {
		case tt < 360_000:
			trough++
		case tt >= 1_620_000 && tt < 1_980_000:
			peak++
		}
	}
	if peak < 3*trough {
		t.Errorf("diurnal peak window has %d arrivals vs %d trough — modulation not expressed", peak, trough)
	}
}

func TestWarmRevisitsChurnAndCoalescing(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visits < res.Users {
		t.Fatalf("visits %d < users %d: revisits missing", res.Visits, res.Users)
	}
	if res.DNSCacheHits == 0 {
		t.Error("no DNS cache hits: warm path not carried across revisits")
	}
	if res.ResumedConns == 0 {
		t.Error("no resumed handshakes: ticket store not engaged")
	}
	if res.ChurnedConns == 0 {
		t.Error("no churned connections: idle-timeout churn not engaged")
	}
	if res.CoalescedReqs == 0 || res.CoalesceRate <= 0 {
		t.Error("no coalesced requests under PhaseIP")
	}
	if res.P50Ms <= 0 || res.P999Ms < res.P99Ms || res.P99Ms < res.P90Ms || res.P90Ms < res.P50Ms {
		t.Errorf("percentiles not monotone: p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f",
			res.P50Ms, res.P90Ms, res.P99Ms, res.P999Ms)
	}
	if res.SLOAttainment <= 0 || res.SLOAttainment > 1 {
		t.Errorf("SLO attainment %.3f out of range", res.SLOAttainment)
	}
}

func TestOverloadShowsQueueing(t *testing.T) {
	cfg := testConfig()
	cfg.Users = 3000
	cfg.RatePerSec = 2000 // well past the PoPs' service capacity
	cfg.PoPs = 2
	cfg.PoPServers = 1
	hot, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RatePerSec = 20
	cool, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hot.MeanWaitMs <= cool.MeanWaitMs {
		t.Errorf("overload mean wait %.1f not above light-load %.1f", hot.MeanWaitMs, cool.MeanWaitMs)
	}
	if hot.SLOAttainment >= cool.SLOAttainment {
		t.Errorf("overload SLO %.3f not below light-load %.3f", hot.SLOAttainment, cool.SLOAttainment)
	}
}

func TestSweepAndValidate(t *testing.T) {
	cfg := testConfig()
	cfg.Users = 800
	rs, err := Sweep(cfg, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("sweep returned %d results, want 2", len(rs))
	}
	if rs[1].RatePerSec != 2*rs[0].RatePerSec*2 {
		// 0.5x and 2x of the same base differ by 4x.
		t.Errorf("sweep rates %.0f / %.0f not in 1:4 ratio", rs[0].RatePerSec, rs[1].RatePerSec)
	}
	cfg.Arrival = "bursty"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
	cfg.Arrival = ""
	cfg.Users = math.MaxInt32 + 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("more users than the queueing pass's int32 key holds accepted")
	}
}
