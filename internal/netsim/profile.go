package netsim

import "fmt"

// Profile is a named, validated network condition for the scenario
// matrix: a base Params set whose loss/latency values model one access
// technology. Profiles are constructed only through NewProfile (or the
// built-in constructors below), so an instantiated Profile always
// carries parameters Validate accepts — the matrix can price cells
// from it without re-checking for NaN/underflow hazards.
type Profile struct {
	Name   string
	Params Params
}

// NewProfile validates p and wraps it under name. This is the
// construction-time rejection the profile layer guarantees: a profile
// with zero/negative bandwidth or loss outside [0, 1) is an error, not
// a latent NaN in TransferTime.
func NewProfile(name string, p Params) (Profile, error) {
	if name == "" {
		return Profile{}, fmt.Errorf("netsim: profile name must be non-empty")
	}
	if err := p.Validate(); err != nil {
		return Profile{}, fmt.Errorf("profile %q: %w", name, err)
	}
	return Profile{Name: name, Params: p}, nil
}

// mustProfile backs the built-in constructors, whose literals are
// covered by tests; a panic here is a programming error, not input.
func mustProfile(name string, p Params) Profile {
	pr, err := NewProfile(name, p)
	if err != nil {
		panic(err)
	}
	return pr
}

// ProfileWired is the paper's median crawl condition (DefaultParams):
// 90 ms RTT, 50 Mbit/s downstream, lossless.
func ProfileWired() Profile { return mustProfile("wired", DefaultParams()) }

// Profile3G models a loaded 3G/HSPA path: high RTT, slow resolver,
// ~2 Mbit/s downstream, 2% residual loss.
func Profile3G() Profile {
	p := DefaultParams()
	p.RTTMs = 250
	p.JitterMs = 30
	p.DNSMs = 300
	p.BandwidthKBps = 250
	p.LossRate = 0.02
	return mustProfile("3g", p)
}

// Profile4G models LTE: moderate RTT, ~20 Mbit/s downstream, light
// residual loss.
func Profile4G() Profile {
	p := DefaultParams()
	p.RTTMs = 60
	p.JitterMs = 12
	p.DNSMs = 90
	p.BandwidthKBps = 2500
	p.LossRate = 0.005
	return mustProfile("4g", p)
}

// ProfileSatellite models a GEO satellite path: ~600 ms RTT dominates
// every handshake round trip, with decent bandwidth and bursty loss.
func ProfileSatellite() Profile {
	p := DefaultParams()
	p.RTTMs = 600
	p.JitterMs = 40
	p.DNSMs = 650
	p.BandwidthKBps = 1500
	p.LossRate = 0.01
	return mustProfile("satellite", p)
}

// Profiles returns the built-in profile set in matrix order.
func Profiles() []Profile {
	return []Profile{ProfileWired(), Profile4G(), Profile3G(), ProfileSatellite()}
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
