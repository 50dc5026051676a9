package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Zero or negative bandwidth, loss outside [0, 1), and non-finite
// values must be rejected at construction with a clear error — never
// accepted to later produce NaN or underflowed transfer times.
func TestProfileConstructionRejectsBadParams(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
		want   string
	}{
		{"zero bandwidth", func(p *Params) { p.BandwidthKBps = 0 }, "BandwidthKBps"},
		{"negative bandwidth", func(p *Params) { p.BandwidthKBps = -100 }, "BandwidthKBps"},
		{"nan bandwidth", func(p *Params) { p.BandwidthKBps = math.NaN() }, "BandwidthKBps"},
		{"loss exactly one", func(p *Params) { p.LossRate = 1.0 }, "LossRate"},
		{"loss above one", func(p *Params) { p.LossRate = 1.5 }, "LossRate"},
		{"negative loss", func(p *Params) { p.LossRate = -0.1 }, "LossRate"},
		{"nan loss", func(p *Params) { p.LossRate = math.NaN() }, "LossRate"},
		{"negative rtt", func(p *Params) { p.RTTMs = -1 }, "RTTMs"},
		{"inf dns", func(p *Params) { p.DNSMs = math.Inf(1) }, "DNSMs"},
		{"nan scale", func(p *Params) { p.LatencyScale = math.NaN() }, "LatencyScale"},
	}
	for _, tc := range cases {
		p := DefaultParams()
		tc.mutate(&p)
		if _, err := newProfile("bad", p); err == nil {
			t.Errorf("%s: newProfile accepted invalid params", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
		if _, err := NewChecked(p, 1); err == nil {
			t.Errorf("%s: NewChecked accepted invalid params", tc.name)
		}
	}
	if _, err := newProfile("", DefaultParams()); err == nil {
		t.Error("newProfile accepted an empty name")
	}
}

func TestBuiltinProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) < 3 {
		t.Fatalf("want at least 3 built-in profiles, got %d", len(ps))
	}
	for _, pr := range ps {
		if err := pr.Params.Validate(); err != nil {
			t.Errorf("built-in profile %q invalid: %v", pr.Name, err)
		}
		got, err := ProfileByName(pr.Name)
		if err != nil || got.Name != pr.Name {
			t.Errorf("ProfileByName(%q) = %+v, %v", pr.Name, got, err)
		}
	}
	if _, err := ProfileByName("5g"); err == nil {
		t.Error("ProfileByName accepted an unknown name")
	}
}

// Property: across the loss-latency grid of every built-in profile,
// TransferTime is finite, non-negative, and monotone — non-decreasing
// in body size at fixed loss, and non-decreasing in loss at fixed
// size (retransmissions can only slow a transfer down).
func TestTransferTimeMonotoneAcrossLossGrid(t *testing.T) {
	losses := []float64{0, 0.005, 0.01, 0.02, 0.05, 0.10, 0.25, 0.5, 0.9}
	sizes := []int64{0, 1, 512, 1 << 10, 64 << 10, 1 << 20, 64 << 20}
	for _, base := range Profiles() {
		grid := make([]Profile, len(losses))
		for i, l := range losses {
			p := base.Params
			p.LossRate = l
			var err error
			if grid[i], err = newProfile(fmt.Sprintf("%s+loss%g", base.Name, l), p); err != nil {
				t.Fatalf("%s: loss %g: %v", base.Name, l, err)
			}
		}
		// Jitter off isolates the deterministic component the property
		// speaks about; the jitter draw is additive noise on top.
		prevAtSize := make([]float64, len(sizes))
		for gi, pr := range grid {
			p := pr.Params
			p.JitterMs = 0
			n := New(p, 1)
			prev := -1.0
			for si, bytes := range sizes {
				d := n.TransferTime(bytes)
				if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
					t.Fatalf("%s bytes=%d: TransferTime not a finite non-negative duration: %v", pr.Name, bytes, d)
				}
				if d < prev {
					t.Errorf("%s: TransferTime(%d)=%v < TransferTime(previous size)=%v — not monotone in size", pr.Name, bytes, d, prev)
				}
				prev = d
				if gi > 0 && d < prevAtSize[si] {
					t.Errorf("%s bytes=%d: duration %v < %v at lower loss — not monotone in loss", pr.Name, bytes, d, prevAtSize[si])
				}
				prevAtSize[si] = d
			}
		}
	}
}

// The loss knob must obey the stream contract: it scales durations but
// never consumes extra RNG draws, so toggling it cannot shift the
// seeded stream of later phases.
func TestLossRateDoesNotShiftStream(t *testing.T) {
	base := DefaultParams()
	lossy := base
	lossy.LossRate = 0.25
	a, b := New(base, 7), New(lossy, 7)
	a.DNSTime()
	b.DNSTime()
	a.TransferTime(4096)
	b.TransferTime(4096)
	if av, bv := a.float64(), b.float64(); av != bv {
		t.Fatalf("loss knob shifted the RNG stream: %v vs %v", av, bv)
	}
	// And zero loss leaves durations byte-identical to the historical
	// model: scale() must be a pure pass-through.
	if s := base.CostScale(); s != 1 {
		t.Fatalf("lossless default CostScale = %v, want 1", s)
	}
	if s := lossy.CostScale(); math.Abs(s-1/(1-0.25)) > 1e-12 {
		t.Fatalf("CostScale(loss=0.25) = %v, want %v", s, 1/(1-0.25))
	}
}
