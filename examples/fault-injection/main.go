// Fault injection: how much real-world degradation does connection
// coalescing survive?
//
// The paper's measurements (§3, §5) are best-case: lab networks, a
// healthy CDN, no packet loss. This example degrades the deployment
// experiment with a seeded fault plan — DNS SERVFAILs, TCP resets
// mid-stream, TLS handshake failures, telemetry restarts, packet loss
// — and re-reads the headline numbers. Two things fall out:
//
//  1. the coalescing *signal* (the experiment/control ratio of new
//     third-party TLS connections, Figure 8) is robust: resets kill
//     individual carrier connections but hit both groups alike;
//
//  2. the *accounting* must be fault-aware: a telemetry restart makes
//     reused connections reappear under fresh IDs, and the §5.2
//     counting rules have to exclude those or the reduction vanishes.
//
// Run with:
//
//	go run ./examples/fault-injection
package main

import (
	"fmt"
	"log"
	"net/netip"

	"respectorigin/internal/browser"
	"respectorigin/internal/cdn"
	"respectorigin/internal/faults"
	"respectorigin/internal/report"
)

func main() {
	const (
		sample = 800
		seed   = 42
		days   = 12
	)

	// 1. One browser request under a hostile environment: the faults.Env
	//    wrapper injects failures at each boundary (DNS, TLS, reuse) and
	//    the browser's bounded retry-with-backoff rides them out.
	plan, err := faults.ParsePlan("dnsfail=0.4,tlsfail=0.3")
	if err != nil {
		log.Fatal(err)
	}
	c := cdn.New(cdn.Config{SampleRate: 1, Seed: seed})
	z := c.AddZone("www.news.example", cdn.SLATierFree, netip.AddrFrom4([4]byte{104, 18, 0, 9}))
	z.Treatment = cdn.TreatmentExperiment
	c.ReissueCertificates()

	env := &faults.Env{Inner: c, Inj: faults.NewInjector(plan, seed)}
	b := browser.New(browser.PolicyFirefoxOrigin, browser.WithRetries(3, 250))
	out := b.Request(env, z.Host)
	fmt.Printf("one request under %v:\n", plan)
	fmt.Printf("  err=%v retries=%d modelled backoff=%.0f ms\n", out.Err, out.Retries, out.BackoffMs)
	fmt.Printf("  browser failure accounting: %v\n\n", b.FailureCounts())

	// 2. The deployment experiment under increasing degradation. The
	//    same seed drives every run, so the only difference between the
	//    rows is the plan itself.
	specs := []string{"none", "reset=0.02,loss=1", "reset=0.10,dnsfail=0.02,loss=5"}
	fmt.Println("Figure 8 deployment-window ratio under degradation:")
	for _, spec := range specs {
		p, err := faults.ParsePlan(spec)
		if err != nil {
			log.Fatal(err)
		}
		d := report.NewDeploymentWithFaults(sample, seed, p, 1)
		_, _, txt := d.Figure8(days, days/4, days*3/4)
		// Keep only the headline ratio line.
		fmt.Printf("  plan %-32s %s", spec, lastLine(txt))
	}
	fmt.Println()

	// 3. Per-kind injector accounting for the harshest plan.
	p, _ := faults.ParsePlan(specs[len(specs)-1])
	d := report.NewDeploymentWithFaults(sample, seed, p, 1)
	d.Figure8(days, days/4, days*3/4)
	fmt.Print(d.FaultReport())
}

func lastLine(s string) string {
	lines := splitLines(s)
	if len(lines) == 0 {
		return "\n"
	}
	return lines[len(lines)-1] + "\n"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
