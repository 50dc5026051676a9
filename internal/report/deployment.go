package report

import (
	"fmt"
	"net/netip"
	"strings"

	"respectorigin/internal/cdn"
	"respectorigin/internal/faults"
	"respectorigin/internal/measure"
)

// isolatedAddr is the dedicated anycast address the sample group moves
// to during the ORIGIN phase for observability (§5.3).
var isolatedAddr = netip.MustParseAddr("104.19.99.99")

// Deployment wraps a §5 experiment and renders Figures 6, 7 and 8 and
// the passive-measurement headlines.
type Deployment struct {
	CDN *cdn.CDN
	Exp *cdn.Experiment
}

// NewDeployment sets up a CDN and sample group.
func NewDeployment(sampleSize int, seed int64) *Deployment {
	return NewDeploymentWithFaults(sampleSize, seed, faults.Plan{}, 0)
}

// NewDeploymentWithFaults is NewDeployment under a fault plan: every
// visit samples the plan, browsers get the given retry budget, and the
// zero plan reduces exactly to NewDeployment.
func NewDeploymentWithFaults(sampleSize int, seed int64, plan faults.Plan, retries int) *Deployment {
	c := cdn.New(cdn.Config{SampleRate: 1, Seed: seed})
	cfg := cdn.DefaultExperimentConfig()
	cfg.SampleSize = sampleSize
	cfg.Seed = seed
	cfg.Faults = plan
	cfg.FaultRetries = retries
	e := cdn.SetupExperiment(c, cfg)
	return &Deployment{CDN: c, Exp: e}
}

// FaultReport renders the injector's per-kind accounting, or a disabled
// notice under a zero plan.
func (d *Deployment) FaultReport() string {
	return d.Exp.Injector().Report()
}

// FaultSweep regenerates the Figure 8 deployment-window ratio across
// reset rates (each run a fresh deployment with the same seed, so the
// only difference between rows is the plan). It reports, per rate, the
// experiment/control ratio during the window and the per-kind fault
// counts — the "how much degradation until the coalescing signal
// drowns" view of EXPERIMENTS.md.
func FaultSweep(sampleSize int, seed int64, totalDays, phaseStart, phaseEnd int, resetRates []float64) string {
	var sb strings.Builder
	sb.WriteString("Fault sweep: Figure 8 deployment-window ratio vs. injected reset rate\n")
	sb.WriteString("  reset%   exp/ctl ratio   resets injected\n")
	for _, rate := range resetRates {
		d := NewDeploymentWithFaults(sampleSize, seed, faults.Plan{ResetProb: rate / 100}, 1)
		control, experiment := d.Exp.Longitudinal(totalDays, phaseStart, phaseEnd,
			cdn.PhaseOrigin, isolatedAddr, "firefox")
		ratio := experiment.Mean(phaseStart, phaseEnd) / nz(control.Mean(phaseStart, phaseEnd))
		var hits int64
		if inj := d.Exp.Injector(); inj != nil {
			_, hits = inj.Counts(faults.KindReset)
		}
		fmt.Fprintf(&sb, "  %5.1f    %13.2f   %15d\n", rate, ratio, hits)
	}
	return sb.String()
}

// Figure6 renders the certificate issuance setup.
func (d *Deployment) Figure6() string {
	var exp, ctl *cdn.Zone
	for _, z := range d.Exp.SampleZones {
		if exp == nil && z.Treatment == cdn.TreatmentExperiment {
			exp = z
		}
		if ctl == nil && z.Treatment == cdn.TreatmentControl {
			ctl = z
		}
		if exp != nil && ctl != nil {
			break
		}
	}
	var sb strings.Builder
	sb.WriteString("Figure 6: experiment certificate issuance\n")
	fmt.Fprintf(&sb, "  third-party domain:   %s (%d bytes)\n", d.CDN.ThirdParty, len(d.CDN.ThirdParty))
	fmt.Fprintf(&sb, "  control domain:       %s (%d bytes)\n", d.CDN.ControlName, len(d.CDN.ControlName))
	if exp != nil {
		fmt.Fprintf(&sb, "  experiment cert SANs: %v\n", exp.SANs)
	}
	if ctl != nil {
		fmt.Fprintf(&sb, "  control cert SANs:    %v\n", ctl.SANs)
	}
	fmt.Fprintf(&sb, "  sample: %d kept, %d removed (subpage-only; paper removed 22%%)\n",
		len(d.Exp.SampleZones), d.Exp.Removed)
	return sb.String()
}

// ActiveCDF summarizes an active-measurement histogram as per-value
// fractions (the Figure 7 CDFs).
type ActiveCDF struct {
	Counts map[int]int
	Total  int
}

// frac returns the fraction of sites with exactly n new connections.
func (a ActiveCDF) frac(n int) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Counts[n]) / float64(a.Total)
}

func activeCDF(xs []int) ActiveCDF {
	return ActiveCDF{Counts: measure.Histogram(xs), Total: len(xs)}
}

// Figure7 runs the active measurement in the given phase and returns
// the control and experiment new-connection distributions (7a for
// PhaseIP, 7b for PhaseOrigin).
func (d *Deployment) Figure7(phase cdn.Phase) (control, experiment ActiveCDF, text string) {
	switch phase {
	case cdn.PhaseIP:
		d.CDN.EnterPhaseIP()
	case cdn.PhaseOrigin:
		d.CDN.EnterPhaseOrigin(isolatedAddr)
	}
	ctl, exp := d.Exp.ActiveMeasurement()
	d.CDN.ExitExperiment()
	control, experiment = activeCDF(ctl), activeCDF(exp)
	name := "7a (IP coalescing)"
	if phase == cdn.PhaseOrigin {
		name = "7b (ORIGIN frame)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure %s: new connections to the third party per page load\n", name)
	sb.WriteString("  #conns   control   experiment\n")
	for n := 0; n <= 7; n++ {
		fmt.Fprintf(&sb, "  %6d   %6.1f%%   %9.1f%%\n", n, 100*control.frac(n), 100*experiment.frac(n))
	}
	fmt.Fprintf(&sb, "  zero-connection (full coalescing) share: control %.0f%%, experiment %.0f%%\n",
		100*control.frac(0), 100*experiment.frac(0))
	return control, experiment, sb.String()
}

// Figure8 runs the longitudinal ORIGIN deployment and returns the two
// daily new-TLS-connection series.
func (d *Deployment) Figure8(totalDays, phaseStart, phaseEnd int) (control, experiment measure.Series, text string) {
	control, experiment = d.Exp.Longitudinal(totalDays, phaseStart, phaseEnd,
		cdn.PhaseOrigin, isolatedAddr, "firefox")
	var sb strings.Builder
	sb.WriteString("Figure 8: daily new TLS connections to the third party (Firefox)\n")
	sb.WriteString("  day   control   experiment\n")
	for i := range control.Values {
		marker := ""
		if i >= phaseStart && i < phaseEnd {
			marker = "  <- deployment"
		}
		fmt.Fprintf(&sb, "  %3d   %7.0f   %10.0f%s\n", i, control.Values[i], experiment.Values[i], marker)
	}
	during := experiment.Mean(phaseStart, phaseEnd) / nz(control.Mean(phaseStart, phaseEnd))
	fmt.Fprintf(&sb, "  deployment-window experiment/control ratio: %.2f (paper: ~0.5)\n", during)
	return control, experiment, sb.String()
}

// PassiveIP runs the §5.2 passive measurement and reports the headline
// reduction.
func (d *Deployment) PassiveIP(days int) (cdn.PassiveCounts, string) {
	pc := d.Exp.PassiveIP(days)
	txt := fmt.Sprintf("Passive IP-coalescing measurement (§5.2):\n"+
		"  new third-party TLS conns: control %d, experiment %d\n"+
		"  reduction: %.1f%% (paper: 56%%)\n",
		pc.NewTLSConns[cdn.TreatmentControl], pc.NewTLSConns[cdn.TreatmentExperiment], pc.ReductionPct())
	return pc, txt
}

func nz(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
