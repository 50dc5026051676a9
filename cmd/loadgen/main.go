// Command loadgen runs the open-loop live-traffic serving mode: an
// arrival process of independent users (Poisson, diurnal, or flash
// crowd) drives the CDN + network-model + queueing stack on the virtual
// clock, and the run reports tail latency (p50/p90/p99/p99.9), SLO
// attainment, and the coalescing rate under load.
//
// Usage:
//
//	loadgen -users 100000 -rate 200 -arrival poisson
//	loadgen -users 200000 -arrival flash -slo-ms 1000
//	loadgen -users 50000 -sweep 0.5,1,2,4 -out sweep.ndjson
//
// The run is deterministic: the same seed and flags produce a
// byte-identical NDJSON summary for every -workers value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"respectorigin/internal/cliflags"
	"respectorigin/internal/core"
	"respectorigin/internal/loadgen"
	"respectorigin/internal/report"
)

func main() {
	def := loadgen.DefaultConfig()
	users := flag.Int("users", def.Users, "number of arriving users")
	seed := cliflags.Seed(def.Seed)
	workers := cliflags.Workers(0)
	arrival := flag.String("arrival", def.Arrival, "arrival process: poisson | diurnal | flash")
	rate := flag.Float64("rate", def.RatePerSec, "mean user arrival rate per second")
	zones := flag.Int("zones", def.Zones, "customer zones on the CDN")
	pops := flag.Int("pops", def.PoPs, "points of presence")
	popServers := flag.Int("pop-servers", def.PoPServers, "servers per PoP (the c of each G/G/c queue)")
	sloMs := flag.Float64("slo-ms", def.SLOMs, "per-visit latency objective in ms")
	visitsMean := flag.Float64("visits-mean", def.VisitsMean, "mean visits per user (geometric, min 1)")
	revisitSec := flag.Float64("revisit-sec", def.RevisitMeanSec, "mean gap between a user's visits in seconds")
	idleSec := flag.Float64("idle-timeout-sec", def.IdleTimeoutSec, "server idle timeout closing pooled connections")
	sweep := flag.String("sweep", "", "comma-separated rate multipliers; runs one point per value and prints the under-load table")
	protoName := flag.String("proto", "h2", "application protocol modern clients speak: h1 | h2 | h3")
	out := cliflags.Out("", "the NDJSON summary")
	flag.Parse()

	proto, err := core.ParseProtocol(*protoName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}

	cfg := def
	cfg.Users = *users
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Arrival = *arrival
	cfg.RatePerSec = *rate
	cfg.Zones = *zones
	cfg.PoPs = *pops
	cfg.PoPServers = *popServers
	cfg.SLOMs = *sloMs
	cfg.VisitsMean = *visitsMean
	cfg.RevisitMeanSec = *revisitSec
	cfg.IdleTimeoutSec = *idleSec
	cfg.Proto = proto

	var results []loadgen.Result
	if *sweep != "" {
		mults, err := parseMultipliers(*sweep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
		results, err = loadgen.Sweep(cfg, mults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(report.UnderLoadTable(results))
	} else {
		res, err := loadgen.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
		results = []loadgen.Result{res}
		fmt.Println(res)
	}

	if *out != "" {
		err := cliflags.WriteOutput(*out, func(w io.Writer) error { return loadgen.WriteNDJSON(w, results...) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
	}
}

func parseMultipliers(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || m <= 0 {
			return nil, fmt.Errorf("bad sweep multiplier %q", part)
		}
		out = append(out, m)
	}
	return out, nil
}
