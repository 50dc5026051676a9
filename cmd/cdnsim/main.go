// Command cdnsim runs the §5 deployment experiment: certificate
// reissue (Figure 6), IP-based coalescing with passive and active
// measurement (§5.2, Figure 7a), and the ORIGIN-frame deployment with
// its longitudinal view (§5.3, Figures 7b and 8) plus the PLT
// comparison (Figure 9 bottom).
//
// Usage:
//
//	cdnsim -sample 5000 -phase all -workers 4
//	cdnsim -sample 2000 -phase origin
//	cdnsim -sample 2000 -faults reset=0.05,dnsfail=0.01,loss=2 -retries 2
//	cdnsim -sample 2000 -faultsweep
//	cdnsim -matrix -sites 150 -workers 4
//	cdnsim -matrix -personas chrome,mobile -profiles wired,3g -out cells.ndjson
//
// With -matrix, cdnsim runs the scenario sweep instead: every selected
// client persona replays every page-archetype corpus under every
// network profile and resolver transport, and the "who coalesces, who
// shards, what it costs" table is printed (cell NDJSON goes to -out).
// The sweep is byte-identical at any -workers count.
// Without -matrix, -workers sets how many goroutines run each day of the
// passive deployment (Figure 8, §5.2); the output is byte-identical at
// any count. A faulted or traced run keeps those days sequential.
// With -faults, every visit samples the given degradation plan from a
// seeded stream independent of the experiment's own randomness; the
// same seed and plan reproduce the run byte for byte, and an empty plan
// leaves every output identical to a fault-free run.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	_ "net/http/pprof"

	"respectorigin/internal/cdn"
	"respectorigin/internal/cliflags"
	"respectorigin/internal/core"
	"respectorigin/internal/faults"
	"respectorigin/internal/netsim"
	"respectorigin/internal/obs"
	"respectorigin/internal/report"
	"respectorigin/internal/scenario"
)

func main() {
	sample := flag.Int("sample", 5000, "candidate sample domains (paper: 5000)")
	seed := cliflags.Seed(1)
	phase := flag.String("phase", "all", "ip | origin | passive | all")
	days := flag.Int("days", 28, "longitudinal window in days")
	faultSpec := flag.String("faults", "", "fault plan, e.g. reset=0.05,dnsfail=0.01,stale=0.02,loss=2 (empty: none)")
	retries := flag.Int("retries", 1, "browser retry budget under a nonzero fault plan")
	sweep := flag.Bool("faultsweep", false, "run the Figure 8 fault sweep (reset rates 0/1/5%) and exit")
	traceOut := flag.String("trace", "", "write per-visit trace events as NDJSON to this file (- for stdout)")
	metricsAddr := flag.String("metrics-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address during the run")
	warm := cliflags.RegisterWarmReplay(1)
	matrix := flag.Bool("matrix", false, "run the persona × archetype × profile × transport scenario sweep and exit")
	sites := cliflags.Sites(150)
	workers := cliflags.Workers(0)
	personas := flag.String("personas", "", "with -matrix: comma-separated persona selector (chrome, safari, mobile; empty: all)")
	archetypes := flag.String("archetypes", "", "with -matrix: comma-separated page-archetype selector (baseline, sharded, migration; empty: all)")
	profiles := flag.String("profiles", "", "with -matrix: comma-separated network-profile selector (wired, 4g, 3g, satellite; empty: all)")
	dns := flag.String("dns", "", "with -matrix: comma-separated resolver-transport selector (do53, doh; empty: both)")
	matrixOut := cliflags.Out("", "matrix cell NDJSON (with -matrix; empty: table only)")
	flag.Parse()
	warm.Resolve("cdnsim")

	if *matrix {
		cfg, err := scenario.ConfigFromSelectors(*seed, *sites, *workers, *personas, *archetypes, *profiles, *dns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
			os.Exit(2)
		}
		res, err := scenario.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.Table())
		if *matrixOut != "" {
			if err := cliflags.WriteOutput(*matrixOut, res.WriteNDJSON); err != nil {
				fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	plan, err := faults.ParsePlan(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
		os.Exit(2)
	}
	runIP := *phase == "ip" || *phase == "all"
	runOrigin := *phase == "origin" || *phase == "all"
	runPassive := *phase == "passive" || *phase == "all"
	if !runIP && !runOrigin && !runPassive {
		fmt.Fprintf(os.Stderr, "cdnsim: unknown phase %q\n", *phase)
		os.Exit(2)
	}

	if *sweep {
		start, end := *days/4, *days*3/4
		fmt.Println(report.FaultSweep(*sample, *seed, *days, start, end, []float64{0, 1, 5}))
		return
	}

	var trace *obs.Trace
	var recs []obs.Recorder
	if *traceOut != "" {
		trace = obs.NewTrace()
		recs = append(recs, trace)
	}
	if *metricsAddr != "" {
		metrics := obs.NewMetrics()
		metrics.PublishExpvar("cdnsim")
		recs = append(recs, metrics)
		go func() {
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "cdnsim: metrics server: %v\n", err)
			}
		}()
	}

	d := report.NewDeploymentWithFaults(*sample, *seed, plan, *retries)
	d.Exp.Rec = obs.Multi(recs...)
	d.Exp.Cfg.Workers = *workers

	if warm.ProtoSweep {
		sweep := d.Replay(warm.Revisits, warm.Opts, core.Protocols...)
		fmt.Print(report.ProtoSweepTable(sweep, netsim.DefaultParams(), "deployment sample, IP phase"))
		return
	}

	fmt.Println(d.Figure6())

	if runIP {
		_, _, txt := d.Figure7(cdn.PhaseIP)
		fmt.Println(txt)
	}
	if runPassive {
		_, txt := d.PassiveIP(5)
		fmt.Println(txt)
	}
	if runOrigin {
		_, _, txt := d.Figure7(cdn.PhaseOrigin)
		fmt.Println(txt)
		start, end := *days/4, *days*3/4
		_, _, txt8 := d.Figure8(*days, start, end)
		fmt.Println(txt8)
		_, txt9 := d.Figure9Deployment(*seed)
		fmt.Println(txt9)
	}
	if !plan.Zero() {
		fmt.Println(d.FaultReport())
	}
	if warm.Cache {
		// Runs last: the warm/cold pass touches neither the pipeline
		// nor the experiment RNG, so earlier output is unaffected.
		costs := d.Replay(warm.Revisits, warm.Opts, warm.Proto)[0].Visits
		fmt.Println(report.SavingsTable(costs, warm.Label("deployment sample, IP phase")))
	}
	if trace != nil {
		if err := cliflags.WriteOutput(*traceOut, trace.WriteNDJSON); err != nil {
			fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cdnsim: %d trace events -> %s\n", trace.Len(), *traceOut)
	}
}
