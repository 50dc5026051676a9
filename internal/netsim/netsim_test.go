package netsim

import "testing"

func TestDeterminism(t *testing.T) {
	a := New(DefaultParams(), 42)
	b := New(DefaultParams(), 42)
	for i := 0; i < 100; i++ {
		if a.DNSTime() != b.DNSTime() || a.TLSTime(3, 1) != b.TLSTime(3, 1) {
			t.Fatal("same seed diverged")
		}
	}
	c := New(DefaultParams(), 43)
	same := true
	for i := 0; i < 10; i++ {
		if a.DNSTime() != c.DNSTime() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// Reseed's doc says the network then draws what New(n.P, seed) would.
// webgen reseeds one network per page and loadgen one per user, after
// whatever the previous owner drew: a few numbers (the source is still
// computing state words on demand), a few hundred (it has just filled
// the rest) or thousands.
func TestReseedMatchesNew(t *testing.T) {
	p := DefaultParams()
	for _, used := range []int{0, 1, 10, 272, 273, 274, 607, 2000} {
		reused := New(p, 7)
		for i := 0; i < used; i++ {
			reused.float64()
		}
		for _, seed := range []int64{0, 42, -1 << 40} {
			reused.Reseed(seed)
			fresh := New(p, seed)
			for i := 0; i < 700; i++ {
				if got, want := reused.DNSTime(), fresh.DNSTime(); got != want {
					t.Fatalf("after %d draws, Reseed(%d): draw %d DNSTime = %v, New draws %v", used, seed, 3*i, got, want)
				}
				if got, want := reused.TransferTime(4096), fresh.TransferTime(4096); got != want {
					t.Fatalf("after %d draws, Reseed(%d): draw %d TransferTime = %v, New draws %v", used, seed, 3*i+1, got, want)
				}
				if got, want := reused.intn(1000), fresh.intn(1000); got != want {
					t.Fatalf("after %d draws, Reseed(%d): draw %d Intn = %v, New draws %v", used, seed, 3*i+2, got, want)
				}
			}
		}
	}
}

func TestPhaseBounds(t *testing.T) {
	p := DefaultParams()
	n := New(p, 1)
	for i := 0; i < 1000; i++ {
		if d := n.DNSTime(); d < p.DNSMs || d > p.DNSMs+p.JitterMs {
			t.Fatalf("DNS time %v out of bounds", d)
		}
		if c := n.ConnectTime(); c < p.RTTMs || c > p.RTTMs+p.JitterMs {
			t.Fatalf("connect time %v out of bounds", c)
		}
		if w := n.WaitTime(); w < serverThinkMs {
			t.Fatalf("wait time %v below think time", w)
		}
	}
}

func TestTLSTimeGrowsWithRecords(t *testing.T) {
	p := DefaultParams()
	p.JitterMs = 0
	n := New(p, 1)
	one := n.TLSTime(2, 1)
	three := n.TLSTime(2, 3)
	if three <= one {
		t.Errorf("3-record handshake (%v) not slower than 1-record (%v)", three, one)
	}
	if diff := three - one - 2*p.RTTMs; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("extra records cost %v, want %v", three-one, 2*p.RTTMs)
	}
}

func TestTLSTimeGrowsWithSANs(t *testing.T) {
	p := DefaultParams()
	p.JitterMs = 0
	n := New(p, 1)
	small := n.TLSTime(2, 1)
	big := n.TLSTime(2000, 1)
	if big <= small {
		t.Error("SAN count does not increase validation cost")
	}
}

func TestTransferTime(t *testing.T) {
	p := DefaultParams()
	p.JitterMs = 0
	n := New(p, 1)
	if got := n.TransferTime(6250); got != 1 {
		t.Errorf("6250 bytes at 6250 KB/s = %v ms, want 1", got)
	}
	p.BandwidthKBps = 0
	n2 := New(p, 1)
	if n2.TransferTime(100000) != 0 {
		t.Error("zero bandwidth should skip transfer model")
	}
}

func TestRaceEffectsFrequencies(t *testing.T) {
	n := New(DefaultParams(), 99)
	he, spec := 0, 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		e, s := n.RaceEffects()
		he += e
		if s {
			spec++
		}
	}
	if f := float64(he) / trials; f < 0.08 || f > 0.12 {
		t.Errorf("happy eyeballs frequency %v, want ~0.10", f)
	}
	if f := float64(spec) / trials; f < 0.32 || f > 0.38 {
		t.Errorf("speculative frequency %v, want ~0.35", f)
	}
}

// TestTransferStreamInvariance pins the stream contract: toggling
// BandwidthKBps must not shift the seeded jitter stream consumed by
// later phases. Before the fix, a zero-bandwidth TransferTime returned
// early without consuming its draw, desynchronizing every subsequent
// phase from an otherwise-identical run.
func TestTransferStreamInvariance(t *testing.T) {
	pa := DefaultParams()
	pb := DefaultParams()
	pb.BandwidthKBps = 0
	a := New(pa, 42)
	b := New(pb, 42)
	for i := 0; i < 50; i++ {
		a.TransferTime(10000)
		if got := b.TransferTime(10000); got != 0 {
			t.Fatalf("zero-bandwidth transfer = %v, want 0", got)
		}
		if da, db := a.DNSTime(), b.DNSTime(); da != db {
			t.Fatalf("iteration %d: DNS draws diverged after transfer (%v vs %v): bandwidth toggle shifted the stream", i, da, db)
		}
	}
}

// float64 exposes the deterministic RNG stream for callers that need
// auxiliary randomness tied to the same seed.
func (n *Network) float64() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64()
}

// intn exposes the deterministic RNG stream.
func (n *Network) intn(m int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Intn(m)
}
