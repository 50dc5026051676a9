package faults

import (
	"errors"
	"math"
	"net/netip"
	"testing"

	"respectorigin/internal/browser"
)

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"reset=0.05,dnsfail=0.01,stale=0.02,loss=2",
		"goaway=0.1",
		"dnstimeout=0.5,tlsfail=1,logrestart=0.25",
		"none",
		"",
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q.String()=%q): %v", spec, p.String(), err)
		}
		if p != q {
			t.Fatalf("round trip of %q: %+v != %+v", spec, p, q)
		}
	}
}

func TestParsePlanRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"reset",          // no value
		"reset=x",        // non-numeric
		"bogus=0.1",      // unknown kind
		"reset=1.5",      // probability out of range
		"loss=100",       // loss must stay below 100
		"dnsfail=-0.1",   // negative probability
		"reset=0.1,,x=1", // malformed entry
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", spec)
		}
	}
}

func TestZeroPlanIsInert(t *testing.T) {
	var p Plan
	if !p.Zero() {
		t.Fatal("zero value not Zero()")
	}
	inj := NewInjector(p, 1)
	if inj.Enabled() {
		t.Fatal("zero-plan injector reports Enabled")
	}
	for k := Kind(0); k < numKinds; k++ {
		for i := 0; i < 100; i++ {
			if inj.Hit(k) {
				t.Fatalf("zero-plan injector hit %v", k)
			}
		}
		if rolls, hits := inj.Counts(k); rolls != 0 || hits != 0 {
			t.Fatalf("zero-plan injector recorded %d rolls / %d hits for %v", rolls, hits, k)
		}
	}
	if inj.intn(1000) != 0 {
		t.Fatal("zero-plan injector drew from its RNG via Intn")
	}
	var nilInj *Injector
	if nilInj.Enabled() || nilInj.Hit(KindReset) {
		t.Fatal("nil injector not inert")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{DNSFailProb: 0.1, ResetProb: 0.3, StaleOriginProb: 0.05, TLSFailProb: 0.2}
	sequence := func(seed int64) []bool {
		inj := NewInjector(plan, seed)
		var out []bool
		for i := 0; i < 500; i++ {
			out = append(out, inj.Hit(Kind(i%int(numKinds))))
		}
		return out
	}
	a, b := sequence(99), sequence(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("roll %d differs for identical seeds", i)
		}
	}
	c := sequence(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("hit sequence identical across different seeds")
	}
}

func TestHitDrawsEvenAtZeroProbability(t *testing.T) {
	// A plan with one nonzero knob must still consume one draw per roll
	// of every kind, so enabling a second knob later cannot realign the
	// stream of the first.
	onlyReset := NewInjector(Plan{ResetProb: 0.5}, 7)
	both := NewInjector(Plan{ResetProb: 0.5, GoAwayProb: 0}, 7)
	for i := 0; i < 200; i++ {
		_ = onlyReset.Hit(KindGoAway) // zero-probability kind: must draw anyway
		_ = both.Hit(KindGoAway)
		if onlyReset.Hit(KindReset) != both.Hit(KindReset) {
			t.Fatalf("roll %d: reset stream realigned by a zero-probability roll", i)
		}
	}
	if rolls, _ := onlyReset.Counts(KindGoAway); rolls != 200 {
		t.Fatalf("zero-probability kind recorded %d rolls, want 200", rolls)
	}
}

func TestInflationFactor(t *testing.T) {
	if got := InflationFactor(0); got != 1 {
		t.Fatalf("InflationFactor(0) = %v, want exactly 1", got)
	}
	if got := InflationFactor(-3); got != 1 {
		t.Fatalf("InflationFactor(-3) = %v, want 1", got)
	}
	// 1% loss: 1 + 3·0.01/0.99.
	want := 1 + 3*0.01/0.99
	if got := InflationFactor(1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("InflationFactor(1) = %v, want %v", got, want)
	}
	if InflationFactor(5) <= InflationFactor(1) {
		t.Fatal("inflation not monotone in loss")
	}
}

// memEnv is a minimal deterministic environment for Env tests.
type memEnv struct{ addr netip.Addr }

func (m memEnv) Lookup(host string) ([]netip.Addr, error) { return []netip.Addr{m.addr}, nil }
func (m memEnv) CertSANs(string, netip.Addr) []string     { return []string{"*.example"} }
func (m memEnv) OriginSet(string, netip.Addr) []string    { return []string{"https://a.example"} }
func (m memEnv) Reachable(string, netip.Addr) bool        { return true }

func TestEnvInjectsAtEachBoundary(t *testing.T) {
	inner := memEnv{addr: netip.MustParseAddr("192.0.2.1")}
	env := &Env{Inner: inner, Inj: NewInjector(Plan{
		DNSFailProb:     1,
		StaleOriginProb: 1,
	}, 3)}
	if _, err := env.Lookup("a.example"); !errors.Is(err, errDNSServFail) {
		t.Fatalf("Lookup error = %v, want ErrDNSServFail", err)
	}
	if env.Reachable("a.example", inner.addr) {
		t.Fatal("Reachable true despite certain stale-origin plan")
	}
	// Pass-throughs must not be touched by the plan.
	if got := env.CertSANs("a.example", inner.addr); len(got) != 1 || got[0] != "*.example" {
		t.Fatalf("CertSANs perturbed: %v", got)
	}
	if got := env.OriginSet("a.example", inner.addr); len(got) != 1 {
		t.Fatalf("OriginSet perturbed: %v", got)
	}

	env2 := &Env{Inner: inner, Inj: NewInjector(Plan{DNSTimeoutProb: 1}, 3)}
	if _, err := env2.Lookup("a.example"); !errors.Is(err, errDNSTimeout) {
		t.Fatalf("Lookup error = %v, want ErrDNSTimeout", err)
	}
	env3 := &Env{Inner: inner, Inj: NewInjector(Plan{TLSFailProb: 1}, 3)}
	if err := env3.ConnectFail("a.example", inner.addr); !errors.Is(err, errTLSHandshake) {
		t.Fatalf("ConnectFail = %v, want ErrTLSHandshake", err)
	}
	var _ browser.Environment = env // compile-time shape check for the test double
}

func TestEnvZeroPlanPassesThrough(t *testing.T) {
	inner := memEnv{addr: netip.MustParseAddr("192.0.2.1")}
	env := &Env{Inner: inner, Inj: NewInjector(Plan{}, 3)}
	if _, err := env.Lookup("a.example"); err != nil {
		t.Fatalf("Lookup under zero plan: %v", err)
	}
	if !env.Reachable("a.example", inner.addr) {
		t.Fatal("Reachable false under zero plan")
	}
	if err := env.ConnectFail("a.example", inner.addr); err != nil {
		t.Fatalf("ConnectFail under zero plan: %v", err)
	}
}

func TestReportCountsRolls(t *testing.T) {
	inj := NewInjector(Plan{ResetProb: 1}, 5)
	for i := 0; i < 10; i++ {
		inj.Hit(KindReset)
	}
	rolls, hits := inj.Counts(KindReset)
	if rolls != 10 || hits != 10 {
		t.Fatalf("Counts = %d rolls / %d hits, want 10/10", rolls, hits)
	}
	rep := inj.Report()
	if rep == "" || rep == "faults: disabled" {
		t.Fatalf("Report() = %q", rep)
	}
}
