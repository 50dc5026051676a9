package netsim

import "fmt"

// Profile is a named, validated network condition for the scenario
// matrix: a base Params set whose loss/latency values model one access
// technology. The built-in profiles are constructed through newProfile,
// so each carries parameters Validate accepts — the matrix can price
// cells from it without re-checking for NaN/underflow hazards.
type Profile struct {
	Name   string
	Params Params
}

// newProfile validates p and wraps it under name. This is the
// construction-time rejection the profile layer guarantees: a profile
// with zero/negative bandwidth or loss outside [0, 1) is an error, not
// a latent NaN in TransferTime.
func newProfile(name string, p Params) (Profile, error) {
	if name == "" {
		return Profile{}, fmt.Errorf("netsim: profile name must be non-empty")
	}
	if err := p.Validate(); err != nil {
		return Profile{}, fmt.Errorf("profile %q: %w", name, err)
	}
	return Profile{Name: name, Params: p}, nil
}

// Profiles returns the built-in profile set in matrix order. Their
// literals are covered by tests; a panic here is a programming error,
// not input.
func Profiles() []Profile {
	profile := func(name string, rtt, jitter, dns, kbps, loss float64) Profile {
		p := DefaultParams()
		p.RTTMs, p.JitterMs, p.DNSMs, p.BandwidthKBps, p.LossRate = rtt, jitter, dns, kbps, loss
		pr, err := newProfile(name, p)
		if err != nil {
			panic(err)
		}
		return pr
	}
	return []Profile{
		// The paper's median crawl condition, DefaultParams as is: 90 ms
		// RTT, 50 Mbit/s downstream, lossless.
		profile("wired", 90, 8, 110, 6250, 0),
		// LTE: moderate RTT, ~20 Mbit/s downstream, light residual loss.
		profile("4g", 60, 12, 90, 2500, 0.005),
		// A loaded 3G/HSPA path: high RTT, slow resolver, ~2 Mbit/s
		// downstream, 2% residual loss.
		profile("3g", 250, 30, 300, 250, 0.02),
		// A GEO satellite path: ~600 ms RTT dominates every handshake
		// round trip, with decent bandwidth and bursty loss.
		profile("satellite", 600, 40, 650, 1500, 0.01),
	}
}

// ProfileByName resolves a built-in profile by its name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("netsim: unknown profile %q (have wired, 4g, 3g, satellite)", name)
}
