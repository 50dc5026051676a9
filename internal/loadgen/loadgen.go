// Package loadgen is the open-loop live-traffic serving mode: it drives
// the deployment stack (internal/cdn + internal/netsim + internal/sched
// queueing) with an arrival process of independent users on the shared
// virtual clock, and reports tail latency, SLO attainment, and the
// coalescing rate as a function of offered load — the serving-side view
// of the paper's question, where connection coalescing shows up as
// fewer handshakes competing for PoP capacity under the same demand.
//
// The generator is open-loop: users arrive on a schedule drawn from the
// configured arrival process (Poisson, diurnal, or flash-crowd) and
// never slow down because the system is loaded, so queueing delay is
// visible instead of being absorbed by client back-pressure. Each user
// carries its own warm-path cache (internal/cache) across revisits, its
// own connection pool with idle-timeout churn, and its own seeded
// network model, so revisit warmth and coalescing behaviour match the
// single-page experiments.
//
// Determinism is the package invariant: Run is a pure function of
// (Config, Seed), byte-identical for any worker count. The run is three
// phases — (1) arrival times are drawn sequentially from one seeded
// stream; (2) each user's visits are simulated in parallel, every user
// a pure function of its splitmix-derived seeds (own browser, own cache,
// the worker's two random streams reseeded for it); (3) a sequential
// queueing pass replays all visits in arrival order through per-PoP
// server pools on the virtual clock, and only this phase touches the
// float accumulators whose addition order matters.
package loadgen

import (
	"fmt"
	"math"
	"net/netip"

	"respectorigin/internal/browser"
	"respectorigin/internal/cdn"
	"respectorigin/internal/lazyrand"
	"respectorigin/internal/parallel"
)

// Arrival process names accepted by Config.Arrival.
const (
	arrivalPoisson = "poisson" // homogeneous Poisson at RatePerSec
	arrivalDiurnal = "diurnal" // sinusoidal day/night modulation
	ArrivalFlash   = "flash"   // Poisson baseline plus a Gaussian burst
)

// The arrival shapes and the PoP service times are fixed by the model:
// nothing configures them.
const (
	// diurnalPeriodSec is arrivalDiurnal's modulation period, and
	// diurnalDepth how far its trough falls below the peak rate (night
	// runs at 20% of the daytime peak).
	diurnalPeriodSec = 3600
	diurnalDepth     = 0.8
	// ArrivalFlash's burst is a Gaussian bump centred at flashAtSec with
	// width flashWidthSec, multiplying the baseline rate by flashHeight
	// at its peak.
	flashAtSec    = 120
	flashWidthSec = 30
	flashHeight   = 8
	// serviceMs is the server work per request; handshakeSvcMs is the
	// extra server work per fresh TLS handshake (the term coalescing
	// removes).
	serviceMs      = 4
	handshakeSvcMs = 12
)

// Config parameterizes one load-generation run.
type Config struct {
	// Users is the number of arriving users (each makes one or more
	// visits). The run simulates arrivals until this many users exist.
	Users int
	// Seed drives every random draw in the run.
	Seed int64
	// Workers bounds the parallel user-simulation phase; ≤ 0 selects
	// GOMAXPROCS. The output is byte-identical for every
	// value.
	Workers int

	// Arrival selects the arrival process (arrivalPoisson default).
	Arrival string
	// RatePerSec is the mean user arrival rate λ (users/second).
	RatePerSec float64

	// Zones is how many customer zones the simulated CDN hosts; each
	// user is pinned to one home zone. The CDN serves them in PhaseIP.
	Zones int

	// PoPs is the number of points of presence; each user is anchored
	// to one (nearest-PoP routing). PoPServers is the per-PoP server
	// count — the c of the per-PoP G/G/c queue.
	PoPs       int
	PoPServers int

	// VisitsMean is the mean number of visits per user (geometric,
	// minimum 1). RevisitMeanSec is the mean gap between a user's
	// successive visits (exponential). IdleTimeoutSec is the server
	// idle timeout: a revisit gap at or above it finds the user's
	// pooled connections closed and must reconnect (connection churn).
	VisitsMean     float64
	RevisitMeanSec float64
	IdleTimeoutSec float64

	// SLOMs is the per-visit latency objective for SLO attainment.
	SLOMs float64

	// Proto is the application protocol modern (Firefox/Chrome) clients
	// speak: h1 disables cross-host coalescing, h2 (the zero value) is
	// the historical baseline, h3 pays QUIC handshake paths with
	// token-gated 0-RTT. Legacy clients are unaffected. The protocol is
	// configuration, not a random draw, so toggling it never shifts the
	// arrival schedule or any user's profile/visit stream.
	Proto browser.Protocol
}

// DefaultConfig returns a runnable medium-load configuration.
func DefaultConfig() Config {
	return Config{
		Users:          100_000,
		Seed:           1,
		Arrival:        arrivalPoisson,
		RatePerSec:     200,
		Zones:          64,
		PoPs:           16,
		PoPServers:     8,
		VisitsMean:     2.5,
		RevisitMeanSec: 600,
		IdleTimeoutSec: 300,
		SLOMs:          1500,
	}
}

// withDefaults resolves zero values so partial configs stay runnable.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Users <= 0 {
		c.Users = d.Users
	}
	if c.Arrival == "" {
		c.Arrival = d.Arrival
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = d.RatePerSec
	}
	if c.Zones <= 0 {
		c.Zones = d.Zones
	}
	if c.PoPs <= 0 {
		c.PoPs = d.PoPs
	}
	if c.PoPServers <= 0 {
		c.PoPServers = d.PoPServers
	}
	if c.VisitsMean < 1 {
		c.VisitsMean = d.VisitsMean
	}
	if c.RevisitMeanSec <= 0 {
		c.RevisitMeanSec = d.RevisitMeanSec
	}
	if c.IdleTimeoutSec <= 0 {
		c.IdleTimeoutSec = d.IdleTimeoutSec
	}
	if c.SLOMs <= 0 {
		c.SLOMs = d.SLOMs
	}
	return c
}

// mix derives an independent 64-bit seed from (seed, id) via the
// splitmix64 finalizer — the per-user seeding discipline that makes
// every user a pure function of its index, independent of worker count.
func mix(seed int64, id uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// rate returns the instantaneous arrival rate λ(t) at t seconds, and
// peakRate its supremum — the homogeneous rate the thinning sampler
// draws candidates at.
func (c Config) rate(tSec float64) float64 {
	switch c.Arrival {
	case arrivalDiurnal:
		// Peak λ at mid-cycle, trough λ·(1-depth) at t=0 (cosine phase).
		return c.RatePerSec * (1 - diurnalDepth*(0.5+0.5*math.Cos(2*math.Pi*tSec/diurnalPeriodSec)))
	case ArrivalFlash:
		x := (tSec - flashAtSec) / flashWidthSec
		return c.RatePerSec * (1 + (flashHeight-1)*math.Exp(-x*x))
	default:
		return c.RatePerSec
	}
}

func (c Config) peakRate() float64 {
	if c.Arrival == ArrivalFlash {
		return c.RatePerSec * flashHeight
	}
	return c.RatePerSec
}

// arrivalTimes draws the Users arrival instants (milliseconds,
// ascending) from one sequential seeded stream. Inhomogeneous processes
// use Lewis–Shedler thinning against the peak rate, so every accepted
// and rejected candidate consumes draws in schedule order and the
// schedule is independent of everything downstream.
func (c Config) arrivalTimes() []float64 {
	rs := lazyrand.New(mix(c.Seed, 0))
	peak := c.peakRate()
	times := make([]float64, 0, c.Users)
	t := 0.0
	for len(times) < c.Users {
		t += rs.ExpFloat64() / peak
		if c.Arrival == arrivalPoisson || rs.Float64() < c.rate(t)/peak {
			times = append(times, t*1000)
		}
	}
	return times
}

// Validate reports configuration errors a run cannot proceed past.
func (c Config) Validate() error {
	switch c.Arrival {
	case "", arrivalPoisson, arrivalDiurnal, ArrivalFlash:
	default:
		return fmt.Errorf("loadgen: unknown arrival process %q", c.Arrival)
	}
	if c.Users > math.MaxInt32 {
		// The queueing pass keys a visit by an int32 user index.
		return fmt.Errorf("loadgen: %d users, at most %d", c.Users, math.MaxInt32)
	}
	return nil
}

// buildCDN constructs the shared serving environment: Zones customer
// zones with alternating control/experiment treatment, certificates
// reissued, and PhaseIP entered, the phase whose coalescing moves the
// handshake load on the PoPs. The CDN is
// read-only during the parallel phase: its reads answer from one
// published view and take no lock.
func buildCDN(cfg Config) *cdn.CDN {
	c := cdn.New(cdn.Config{Seed: cfg.Seed})
	for i := 0; i < cfg.Zones; i++ {
		host := zoneHost(i)
		addr := netip.AddrFrom4([4]byte{104, 18, byte(i >> 8), byte(i)})
		z := c.AddZone(host, addr)
		if i%2 == 0 {
			z.Treatment = cdn.TreatmentExperiment
		} else {
			z.Treatment = cdn.TreatmentControl
		}
	}
	c.ReissueCertificates()
	c.EnterPhaseIP()
	return c
}

// zoneHost is the hostname of customer zone i.
func zoneHost(i int) string { return fmt.Sprintf("www.zone-%d.example", i) }

// Run executes the three-phase simulation and returns its aggregate
// result. Same Config ⇒ byte-identical Result for any Workers value.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}

	// Phase 1: sequential arrival schedule.
	arrivals := cfg.arrivalTimes()

	// Phase 2: parallel per-user simulation. Results land at the user's
	// index, and each user reads only its own seeded state plus the
	// shared read-only CDN, so scheduling cannot reorder anything.
	env := buildCDN(cfg)
	perUser := parallel.MapWith(cfg.Users, cfg.Workers,
		func() *userScratch { return newUserScratch(cfg) },
		func(sc *userScratch, i int) []visit { return simulateUser(cfg, env, sc, i, arrivals[i]) })

	// Phase 3: sequential queueing pass over all visits in arrival
	// order — the only phase that owns the order-sensitive float
	// accumulators.
	res := runQueue(cfg, perUser)
	if last := arrivals[len(arrivals)-1]; last > 0 {
		res.OfferedUPS = float64(cfg.Users) / (last / 1000)
	}
	return res, nil
}
