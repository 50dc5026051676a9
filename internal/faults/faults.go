// Package faults is a seeded, deterministic fault-plan engine for the
// ORIGIN stack. The paper's §5 deployment succeeded only because the
// production CDN tolerated churned zones, anonymous-fetch pools, and
// misconfigured origin sets (the 421 fail-open path of §5.3); this
// package makes those failure modes — plus the transport-level ones the
// deployment logs hint at — first-class, reproducible inputs to the
// simulators and the live HTTP/2 stack:
//
//   - DNS SERVFAIL and resolver timeouts,
//   - TLS handshake failures and TCP resets mid-stream,
//   - server GOAWAY drains,
//   - stale origin sets producing 421 storms,
//   - loss-driven latency inflation for the netsim cost model,
//   - telemetry restarts that lose per-connection log state.
//
// Everything is driven by a Plan (per-fault probabilities) and an
// Injector seeded independently of every other RNG stream in the
// repository, so that a zero plan leaves all outputs byte-identical
// and a fixed nonzero plan is reproducible run to run.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"respectorigin/internal/lazyrand"
)

// Kind identifies one injectable fault class.
type Kind int

// Fault kinds.
const (
	// kindDNSFail is a resolver SERVFAIL: the lookup returns an error
	// immediately.
	kindDNSFail Kind = iota
	// kindDNSTimeout is a resolver timeout: the lookup fails after the
	// full timeout budget (latency inflation plus an error).
	kindDNSTimeout
	// KindTLSFail is a failed TLS handshake on a fresh connection.
	KindTLSFail
	// KindReset is a TCP reset tearing down an established connection
	// mid-stream.
	KindReset
	// KindGoAway is a graceful server GOAWAY: in-flight streams finish,
	// but the connection accepts no new requests.
	KindGoAway
	// kindStaleOrigin is a stale or misconfigured origin set: the server
	// advertised a hostname its edge no longer serves, so reuse attempts
	// bounce with 421 Misdirected Request (the §5.3 fail-open path).
	kindStaleOrigin
	// KindLogRestart is a telemetry-pipeline restart that loses the
	// per-connection bookkeeping accumulated so far (arrival orders keep
	// counting on the wire, but the collector starts over).
	KindLogRestart

	numKinds
)

var kindNames = [numKinds]string{
	kindDNSFail:     "dnsfail",
	kindDNSTimeout:  "dnstimeout",
	KindTLSFail:     "tlsfail",
	KindReset:       "reset",
	KindGoAway:      "goaway",
	kindStaleOrigin: "stale",
	KindLogRestart:  "logrestart",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Injected fault errors. They are sentinel values so retry layers can
// classify failures with errors.Is.
var (
	errDNSServFail  = errors.New("faults: injected DNS SERVFAIL")
	errDNSTimeout   = errors.New("faults: injected DNS timeout")
	errTLSHandshake = errors.New("faults: injected TLS handshake failure")
	errConnReset    = errors.New("faults: injected connection reset")
)

// Plan is a fault plan: one independent probability per fault kind plus
// a packet-loss rate. The zero value disables everything.
type Plan struct {
	// DNSFailProb is the per-lookup SERVFAIL probability.
	DNSFailProb float64
	// DNSTimeoutProb is the per-lookup resolver-timeout probability.
	DNSTimeoutProb float64
	// TLSFailProb is the per-connection-attempt handshake failure
	// probability.
	TLSFailProb float64
	// ResetProb is the per-opportunity probability of a TCP reset on an
	// established connection (per pool request in the simulator, per
	// byte-budget window on a live chaos connection).
	ResetProb float64
	// GoAwayProb is the per-opportunity probability of a graceful server
	// GOAWAY on an established connection.
	GoAwayProb float64
	// StaleOriginProb is the per-reuse-attempt probability that the
	// authoritative check fails even though the origin set (or DNS)
	// authorized the reuse, producing a 421.
	StaleOriginProb float64
	// LogRestartProb is the per-opportunity probability of a telemetry
	// restart losing per-connection log state.
	LogRestartProb float64
	// LossPct is the packet-loss percentage (0–100) driving latency
	// inflation via InflationFactor.
	LossPct float64
}

// Zero reports whether the plan injects nothing.
func (p Plan) Zero() bool { return p == Plan{} }

// prob returns the probability configured for kind k.
func (p Plan) prob(k Kind) float64 {
	switch k {
	case kindDNSFail:
		return p.DNSFailProb
	case kindDNSTimeout:
		return p.DNSTimeoutProb
	case KindTLSFail:
		return p.TLSFailProb
	case KindReset:
		return p.ResetProb
	case KindGoAway:
		return p.GoAwayProb
	case kindStaleOrigin:
		return p.StaleOriginProb
	case KindLogRestart:
		return p.LogRestartProb
	default:
		return 0
	}
}

// validate checks every probability is in [0, 1] and the loss rate is a
// percentage in [0, 100).
func (p Plan) validate() error {
	for k := Kind(0); k < numKinds; k++ {
		if pr := p.prob(k); pr < 0 || pr > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0, 1]", k, pr)
		}
	}
	if p.LossPct < 0 || p.LossPct >= 100 {
		return fmt.Errorf("faults: loss percentage %v outside [0, 100)", p.LossPct)
	}
	return nil
}

// String renders the plan in ParsePlan's spec syntax, omitting zero
// entries; the zero plan renders as "none".
func (p Plan) String() string {
	var parts []string
	for k := Kind(0); k < numKinds; k++ {
		if pr := p.prob(k); pr > 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", k, pr))
		}
	}
	if p.LossPct > 0 {
		parts = append(parts, fmt.Sprintf("loss=%v", p.LossPct))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses a comma-separated key=value spec, e.g.
// "reset=0.05,dnsfail=0.01,stale=0.02,loss=2". Keys are the Kind names
// plus "loss"; an empty spec or "none" is the zero plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return Plan{}, fmt.Errorf("faults: bad spec entry %q (want key=value)", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: bad value in %q: %v", part, err)
		}
		switch kv[0] {
		case "dnsfail":
			p.DNSFailProb = v
		case "dnstimeout":
			p.DNSTimeoutProb = v
		case "tlsfail":
			p.TLSFailProb = v
		case "reset":
			p.ResetProb = v
		case "goaway":
			p.GoAwayProb = v
		case "stale":
			p.StaleOriginProb = v
		case "logrestart":
			p.LogRestartProb = v
		case "loss":
			p.LossPct = v
		default:
			return Plan{}, fmt.Errorf("faults: unknown fault %q", kv[0])
		}
	}
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// InflationFactor converts a packet-loss percentage into a latency
// multiplier: each lost packet is recovered after a retransmission
// timeout of roughly three RTTs, so the expected per-phase cost grows by
// 3·p/(1−p) for loss rate p. 0% loss returns exactly 1.
func InflationFactor(lossPct float64) float64 {
	p := lossPct / 100
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		p = 0.99
	}
	return 1 + 3*p/(1-p)
}

// An Injector rolls fault decisions from a Plan against its own seeded
// RNG stream, counting rolls and hits per kind. It is safe for
// concurrent use, but deterministic replay requires callers to roll in
// a deterministic order (the simulators are single-threaded per run).
type Injector struct {
	plan Plan

	mu    sync.Mutex
	rng   *rand.Rand
	rolls [numKinds]int64
	hits  [numKinds]int64
}

// NewInjector returns an injector for the plan. A zero plan yields an
// inert injector that never draws from its RNG.
func NewInjector(p Plan, seed int64) *Injector {
	return &Injector{plan: p, rng: lazyrand.New(seed)}
}

// Plan returns the injector's fault plan.
func (in *Injector) Plan() Plan { return in.plan }

// Enabled reports whether the injector can inject anything.
func (in *Injector) Enabled() bool { return in != nil && !in.plan.Zero() }

// Hit rolls the plan's probability for kind k, recording the roll.
// Inert injectors (nil, or zero plan) never draw and always miss, so a
// disabled fault layer consumes no randomness at all.
func (in *Injector) Hit(k Kind) bool {
	if !in.Enabled() {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rolls[k]++
	// Draw even for zero-probability kinds so that the stream consumed
	// per opportunity is fixed and tweaking one knob cannot silently
	// realign every other fault in the plan.
	if in.rng.Float64() < in.plan.prob(k) {
		in.hits[k]++
		return true
	}
	return false
}

// intn draws an integer from the injector's stream (for byte budgets
// and similar fault parameters). It returns 0 on inert injectors.
func (in *Injector) intn(n int) int {
	if !in.Enabled() || n <= 0 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// Counts returns rolls and hits for kind k.
func (in *Injector) Counts(k Kind) (rolls, hits int64) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rolls[k], in.hits[k]
}

// Report renders per-kind accounting, one "kind: hits/rolls" line per
// kind that was rolled at least once, sorted by kind name.
func (in *Injector) Report() string {
	if !in.Enabled() {
		return "faults: disabled"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	type row struct {
		name        string
		rolls, hits int64
	}
	var rows []row
	for k := Kind(0); k < numKinds; k++ {
		if in.rolls[k] > 0 {
			rows = append(rows, row{k.String(), in.rolls[k], in.hits[k]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var sb strings.Builder
	fmt.Fprintf(&sb, "fault plan %s (injected/opportunities):\n", in.plan)
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-11s %d/%d\n", r.name+":", r.hits, r.rolls)
	}
	return sb.String()
}
