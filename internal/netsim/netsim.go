// Package netsim is the network cost model behind the synthetic dataset
// and the deployment simulator: a deterministic, seedable source of DNS
// lookup times, TCP and TLS handshake times, transfer times, and the
// client race behaviours (happy eyeballs, speculative connections) that
// the paper identifies as the source of the measured DNS-vs-TLS count
// gap (§4.2).
//
// All durations are in milliseconds, matching the HAR timing model.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"respectorigin/internal/lazyrand"
)

// The terms of the latency model that every profile shares: a TLS
// 1.2-era handshake and the client race behaviours of §4.2.
const (
	// tlsRoundTrips is the TCP+TLS handshake cost in RTTs (1 for TLS
	// 1.3, 2 for TLS 1.2).
	tlsRoundTrips float64 = 2
	// certVerifyMs is the client-side certificate validation cost added
	// to every fresh TLS handshake (the §4.2 cryptographic overhead).
	certVerifyMs float64 = 5
	// extraCertVerifyPerSANMs grows validation cost with SAN count,
	// modelling the large-certificate concern of §6.5.
	extraCertVerifyPerSANMs float64 = 0.01
	// serverThinkMs is the base time-to-first-byte at the server.
	serverThinkMs float64 = 25
	// happyEyeballsProb is the probability a fresh connection races a
	// second (IPv6/IPv4) connection, producing an extra DNS query.
	happyEyeballsProb float64 = 0.10
	// speculativeProb is the probability the browser opens a
	// speculative extra connection to a host it expects to need.
	speculativeProb float64 = 0.35
)

// Params configures the latency model.
type Params struct {
	// RTTMs is the base client↔server round-trip time.
	RTTMs float64
	// JitterMs bounds the uniform jitter added to every phase.
	JitterMs float64
	// DNSMs is the base resolver latency for an uncached query.
	DNSMs float64
	// BandwidthKBps is the downstream bandwidth for transfer time.
	BandwidthKBps float64

	// LatencyScale multiplies every phase duration (jitter excluded);
	// values ≤ 0 mean 1. Degraded-network models (packet loss driving
	// retransmissions) set it above 1 via faults.InflationFactor.
	LatencyScale float64

	// LossRate is the packet-loss probability on the path, in [0, 1).
	// Loss drives retransmissions, so every phase duration is inflated
	// by 1/(1-LossRate) — the expected transmission count per segment.
	// The zero value leaves every duration (and every output byte)
	// identical to a loss-free build. Values outside [0, 1) are the
	// NaN/underflow hazard Validate rejects; scale() clamps them to
	// no-op so an unvalidated construction cannot poison durations.
	LossRate float64
}

// scale returns the effective latency multiplier.
func (p Params) scale() float64 {
	s := p.LatencyScale
	if s <= 0 {
		s = 1
	}
	if p.LossRate > 0 && p.LossRate < 1 {
		s *= 1 / (1 - p.LossRate)
	}
	return s
}

// CostScale exposes the effective latency multiplier (LatencyScale
// folded with loss inflation) for pure-arithmetic cost models that price
// non-handshake phases (the scenario matrix's DNS term) without drawing
// from a Network's RNG stream.
func (p Params) CostScale() float64 { return p.scale() }

// Setup is one connection establishment, as the client's warm state
// leaves it. The zero value is a cold TCP+TLS handshake presenting a
// one-record chain with no SANs.
type Setup struct {
	QUIC     bool // h3: transport and crypto share flights, no separate TCP connect
	Resumed  bool // a covering session ticket abbreviated the handshake: no chain is presented
	TokenHit bool // h3: a covering address-validation token spared the Retry round trip
	SANs     int  // names on the presented certificate
	Records  int  // TLS records the chain spans; values below 2 mean one
}

// quicRTTs is the QUIC row of the price list, the resumed × token table:
//
//	resumed + token  → 0-RTT: application data rides the first flight
//	resumed, no token → 1 RTT handshake + 1 RTT Retry
//	full + token      → 1 RTT handshake
//	full, no token    → 1 RTT handshake + 1 RTT Retry
//
// A cold client takes the full-no-token path: 2 RTTs, still cheaper
// than the default TCP+TLS 1.2 profile's 3.
func (s Setup) quicRTTs() float64 {
	switch {
	case s.Resumed && s.TokenHit:
		return 0
	case s.TokenHit:
		return 1
	}
	return 2
}

// handshakeMs is the unscaled handshake price, TCP connect excluded: the
// handshake round trips (tlsRoundTrips, or the QUIC table) and, for a
// full handshake, the chain terms — a round trip per TLS record past
// the first (§6.5), certVerifyMs and the per-SAN validation cost. The
// expression keeps TLSTime's historical evaluation order, which every
// recorded corpus pins to the ulp.
func (p Params) handshakeMs(s Setup) float64 {
	rtts := tlsRoundTrips
	if s.QUIC {
		rtts = s.quicRTTs()
	}
	if s.Resumed {
		return rtts * p.RTTMs
	}
	if s.Records > 1 {
		rtts += float64(s.Records - 1)
	}
	return rtts*p.RTTMs + certVerifyMs + float64(s.SANs)*extraCertVerifyPerSANMs
}

// SetupMs is the jitter-free price of one connection setup, scaled for
// latency and loss: the handshake plus, over TCP, the connect round
// trip. It is the one price list: the pure-arithmetic tables (report's
// protocol sweep, the scenario matrix) call it, and Network.HandshakeTime
// draws jitter around the same handshake term.
func (p Params) SetupMs(s Setup) float64 {
	ms := p.handshakeMs(s)
	if !s.QUIC {
		ms = p.RTTMs + ms
	}
	return ms * p.scale()
}

// Validate rejects parameter combinations that would produce NaN,
// infinite, or negative phase durations: a profile is only usable when
// every duration it prices is finite and non-negative and its transfer
// model is actually on. Legacy call sites that deliberately run with
// the transfer model off (BandwidthKBps <= 0 means "no transfer time")
// construct via New, which stays lenient; profile construction and the
// scenario matrix go through Validate/NewChecked.
func (p Params) Validate() error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("netsim: %s is not finite (%v)", name, v)
		}
		if v < 0 {
			return fmt.Errorf("netsim: %s is negative (%v)", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"RTTMs", p.RTTMs},
		{"JitterMs", p.JitterMs},
		{"DNSMs", p.DNSMs},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if math.IsNaN(p.BandwidthKBps) || math.IsInf(p.BandwidthKBps, 0) || p.BandwidthKBps <= 0 {
		return fmt.Errorf("netsim: BandwidthKBps must be positive and finite, got %v (zero/negative bandwidth would underflow transfer times)", p.BandwidthKBps)
	}
	if math.IsNaN(p.LossRate) || p.LossRate < 0 || p.LossRate >= 1 {
		return fmt.Errorf("netsim: LossRate must be in [0, 1), got %v (loss >= 1 makes retransmission inflation infinite)", p.LossRate)
	}
	if math.IsNaN(p.LatencyScale) || math.IsInf(p.LatencyScale, 0) {
		return fmt.Errorf("netsim: LatencyScale is not finite (%v)", p.LatencyScale)
	}
	return nil
}

// DefaultParams model the paper's median crawl conditions, calibrated
// against its Table 1 (median PLT 5,746 ms, median 14 DNS / 16 TLS
// events per page): a 90 ms global-median RTT (the crawl exits through
// one vantage point to servers worldwide), a TLS 1.2-era handshake mix
// of 2 round trips, a 110 ms uncached resolver path, and 50 Mbit/s
// (6,250 KB/s) downstream. They are deliberately not a TLS 1.3 LAN
// profile; the EXPERIMENTS.md §3 calibration rows depend on them.
func DefaultParams() Params {
	return Params{
		RTTMs:         90,
		JitterMs:      8,
		DNSMs:         110,
		BandwidthKBps: 6250,
	}
}

// Network generates phase durations. It is safe for concurrent use.
//
// Stream contract: every phase method (DNSTime, ConnectTime,
// HandshakeTime, WaitTime, TransferTime) consumes exactly one jitter
// draw per call when JitterMs > 0, and none when JitterMs <= 0 —
// independent of any other parameter. Toggling BandwidthKBps (or any
// other knob) therefore never shifts the seeded stream consumed by later
// phases, so runs that differ only in such a knob stay comparable draw
// for draw. RaceEffects consumes two draws per call.
type Network struct {
	P Params

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a deterministic network for the given seed. It accepts
// any parameters for compatibility (BandwidthKBps <= 0 means "transfer
// model off"); callers building named profiles should prefer NewChecked.
func New(p Params, seed int64) *Network {
	return &Network{P: p, rng: lazyrand.New(seed)}
}

// Reseed restarts the random stream at seed: the network then draws
// exactly what New(n.P, seed) would, without building a new source.
func (n *Network) Reseed(seed int64) {
	n.mu.Lock()
	n.rng.Seed(seed)
	n.mu.Unlock()
}

// NewChecked validates p and returns a deterministic network for the
// given seed, rejecting parameters that would price NaN, infinite, or
// negative durations (zero/negative bandwidth, loss >= 1, negatives).
func NewChecked(p Params, seed int64) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return New(p, seed), nil
}

func (n *Network) jitter() float64 {
	if n.P.JitterMs <= 0 {
		return 0
	}
	return n.rng.Float64() * n.P.JitterMs
}

// DNSTime returns the duration of one DNS lookup.
func (n *Network) DNSTime() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.P.DNSMs*n.P.scale() + n.jitter()
}

// ConnectTime returns the TCP handshake duration (one RTT).
func (n *Network) ConnectTime() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.P.RTTMs*n.P.scale() + n.jitter()
}

// HandshakeTime returns the handshake duration of one connection setup:
// SetupMs without the TCP connect round trip (ConnectTime draws that),
// plus one jitter draw.
//
// Stream contract: the same draws whatever the setup, so toggling
// resumption, tokens or protocol never shifts the seeded stream of
// later phases.
func (n *Network) HandshakeTime(s Setup) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.P.handshakeMs(s)*n.P.scale() + n.jitter()
}

// TLSTime is HandshakeTime for a full TCP+TLS handshake presenting a
// chain with sanCount names spanning tlsRecords records.
func (n *Network) TLSTime(sanCount, tlsRecords int) float64 {
	return n.HandshakeTime(Setup{SANs: sanCount, Records: tlsRecords})
}

// WaitTime returns time-to-first-byte after the request is sent.
func (n *Network) WaitTime() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return (serverThinkMs+n.P.RTTMs/2)*n.P.scale() + n.jitter()
}

// TransferTime returns the receive duration for a body of size bytes.
// With BandwidthKBps <= 0 the transfer model is off and the duration is
// zero, but the jitter draw is still consumed: skipping it would shift
// the seeded stream for every later phase when the bandwidth knob is
// toggled.
func (n *Network) TransferTime(bytes int64) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	j := n.jitter()
	if n.P.BandwidthKBps <= 0 {
		return 0
	}
	return float64(bytes)/n.P.BandwidthKBps*n.P.scale() + j/4
}

// RaceEffects reports the client race behaviours for one fresh
// connection: extraDNS counts duplicate queries from happy eyeballs,
// and speculative reports whether an extra speculative TLS connection
// is opened. These inflate measured DNS/TLS counts above the one-per-
// service ideal (§4.2).
func (n *Network) RaceEffects() (extraDNS int, speculative bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rng.Float64() < happyEyeballsProb {
		extraDNS++
	}
	speculative = n.rng.Float64() < speculativeProb
	return
}
