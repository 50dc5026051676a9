// Command benchmark is the repository's benchmark: six workloads driven
// through the entry points the cmd/ binaries call, end-to-end metrics
// with tracing off, per-layer metrics from a second, traced run.
//
//	go run ./benchmark --workload crawl-report --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload all                  # every workload, one process each
//	go run ./benchmark --workload all --out base.json  # …and keep the results for -compare
//	go run ./benchmark --selfcheck                     # A/A: two sets of runs must agree within the bounds
//	go run ./benchmark --compare old.json new.json
//
// The last line of a single-workload run's standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; see README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

const resultPrefix = "result " // the line a child run hands its full result to `all` on

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, " | ")+" | all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run reporting the per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans as NDJSON to this file after the last iteration")
	out := flag.String("out", "", "write the full results (a JSON array, the input of -compare) to this file")
	selfcheck := flag.Bool("selfcheck", false, "A/A: two alternating sets of three untraced runs of every workload; fail when their medians disagree by more than a metric's bound")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare old.json new.json")
	flag.Parse()

	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two result files: old.json new.json")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		case *selfcheck:
			return selfCheck(*seed, *seconds)
		case *workload == "all":
			results, err := runAll(*seed, *seconds, *trace)
			if err != nil {
				return err
			}
			return writeResults(*out, results)
		}
		res, err := runWorkload(*workload, *seed, *seconds, *trace != 0, fullSizes, *traceOut)
		if err != nil {
			return err
		}
		if err := writeResults(*out, []*result{res}); err != nil {
			return err
		}
		return printResult(res)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// printResult prints every metric by name and unit, the full result for
// a parent `all` run, and last the one-line summary the driver reads.
// An incorrect run is an error: the exit code is non-zero.
func printResult(res *result) error {
	fmt.Printf("workload %s  seed %d  trace %v  gomaxprocs %d  workers %d  iterations %d  ops/iteration %d %s  sim_digest %s\n",
		res.Workload, res.Seed, res.Traced, res.Gomaxprocs, res.Workers, res.Iterations, res.Ops, res.OpUnit, res.SimDigest)
	defs := endToEnd
	if res.Traced {
		defs = perLayer
		fmt.Printf("  span self times cover %.1f%% of the traced iterations' wall time\n", 100*res.Coverage)
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Printf("  %-42s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	sampled := make([]string, 0, len(res.Samples))
	for name := range res.Samples {
		sampled = append(sampled, name)
	}
	sort.Strings(sampled)
	for _, name := range sampled {
		fmt.Printf("  samples %-34s %16d\n", name, res.Samples[name])
	}
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", resultPrefix, full)
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed an invariant", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs each workload in a process of its own, so peak RSS and GC
// state are per workload, and collects the children's full results.
func runAll(seed int64, seconds float64, trace int) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*result
	for _, name := range workloadNames {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		err := cmd.Run()
		var res *result
		for _, l := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
			rest, ok := strings.CutPrefix(l, resultPrefix)
			if !ok {
				fmt.Println(l)
			} else if uerr := json.Unmarshal([]byte(rest), &res); uerr != nil {
				return nil, fmt.Errorf("workload %s: result line: %w", name, uerr)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		if res == nil {
			return nil, fmt.Errorf("workload %s printed no result", name)
		}
		results = append(results, res)
	}
	return results, nil
}

func writeResults(path string, results []*result) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
