package netsim

import (
	"math"
	"testing"

	"respectorigin/internal/lazyrand"
)

// The formulas SetupMs and HandshakeTime replaced, copied verbatim
// (receiver and jitter draw made arguments). Every recorded corpus,
// golden and sim_digest was priced by them.

func refTCPTLSSetupMs(p Params, resumed bool) float64 {
	ms := p.RTTMs + p.TLSRoundTrips*p.RTTMs
	if !resumed {
		ms += p.CertVerifyMs
	}
	return ms
}

func refQUICSetupMs(p Params, rtts float64, verifyChain bool) float64 {
	ms := rtts * p.RTTMs
	if verifyChain {
		ms += p.CertVerifyMs
	}
	return ms
}

func refTLSTime(p Params, jitter float64, sanCount, tlsRecords int) float64 {
	rtts := p.TLSRoundTrips
	if tlsRecords > 1 {
		rtts += float64(tlsRecords - 1)
	}
	d := (rtts*p.RTTMs+p.CertVerifyMs+
		float64(sanCount)*p.ExtraCertVerifyPerSANMs)*p.scale() + jitter
	return d
}

func refQUICHandshakeTime(p Params, jitter, rtts float64, verifyChain bool, sanCount int) float64 {
	d := rtts * p.RTTMs
	if verifyChain {
		d += p.CertVerifyMs + float64(sanCount)*p.ExtraCertVerifyPerSANMs
	}
	d = d*p.scale() + jitter
	return d
}

// refPathRTTs is the QUIC round-trip table as quic.Path.RTTs held it.
func refPathRTTs(resumed, tokenHit bool) float64 {
	rtts := 1.0
	if resumed && tokenHit {
		rtts = 0
	}
	if !tokenHit {
		rtts++ // address validation via Retry
	}
	return rtts
}

// quicRegroupedMinSANs names the one place the old formulas disagreed
// with each other. QUICHandshakeTime summed CertVerifyMs + SANs·per-SAN
// before adding the round trips; TLSTime, whose grouping the one price
// keeps, adds left to right. At 1 RTT (a full handshake with a token)
// under the wired and 4g profiles the two sums round one ulp apart from
// 304 SANs up. No QUIC caller priced more than one SAN (loadgen charged
// 1, report's sweep 0), so no recorded output moved.
const quicRegroupedMinSANs = 304

// priceParams is every parameter set a price is taken under: the
// default, every built-in profile (the lossy ones scale by 1/(1-loss)),
// and the default without jitter.
func priceParams() []Params {
	ps := []Params{DefaultParams()}
	for _, pr := range Profiles() {
		ps = append(ps, pr.Params)
	}
	still := DefaultParams()
	still.JitterMs = 0
	return append(ps, still)
}

var bools = []bool{false, true}

func TestSetupMsMatchesReplacedFormulas(t *testing.T) {
	for _, p := range priceParams() {
		scale := p.scale()
		for _, resumed := range bools {
			want := refTCPTLSSetupMs(p, resumed) * scale
			if got := p.SetupMs(Setup{Resumed: resumed}); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("rtt %v loss %v: SetupMs(TCP, resumed=%v) = %v, TCPTLSSetupMs·scale = %v", p.RTTMs, p.LossRate, resumed, got, want)
			}
			for _, token := range bools {
				want := refQUICSetupMs(p, refPathRTTs(resumed, token), !resumed) * scale
				s := Setup{QUIC: true, Resumed: resumed, TokenHit: token}
				if got := p.SetupMs(s); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("rtt %v loss %v: SetupMs(%+v) = %v, QUICSetupMs·scale = %v", p.RTTMs, p.LossRate, s, got, want)
				}
			}
		}
	}
}

// HandshakeTime draws what TLSTime and QUICHandshakeTime drew, bit for
// bit, over every SAN count webgen's certificates reach, one to three
// records, and every QUIC path; one draw per call keeps a reference
// stream in step.
func TestHandshakeTimeMatchesReplacedFormulas(t *testing.T) {
	regrouped := 0
	for _, p := range priceParams() {
		n := New(p, 11)
		ref := lazyrand.New(11)
		draw := func() float64 {
			if p.JitterMs <= 0 {
				return 0
			}
			return ref.Float64() * p.JitterMs
		}
		for sans := 0; sans <= 750; sans++ {
			for records := 1; records <= 3; records++ {
				want := refTLSTime(p, draw(), sans, records)
				if got := n.TLSTime(sans, records); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("rtt %v loss %v: TLSTime(%d, %d) = %v, replaced formula %v", p.RTTMs, p.LossRate, sans, records, got, want)
				}
				for _, resumed := range bools {
					for _, token := range bools {
						s := Setup{QUIC: true, Resumed: resumed, TokenHit: token, SANs: sans}
						j := draw()
						rtts := refPathRTTs(resumed, token)
						want := refQUICHandshakeTime(p, j, rtts, !resumed, sans)
						got := n.HandshakeTime(s)
						if math.Float64bits(got) == math.Float64bits(want) {
							continue
						}
						leftToRight := (rtts*p.RTTMs+p.CertVerifyMs+float64(sans)*p.ExtraCertVerifyPerSANMs)*p.scale() + j
						if resumed || sans < quicRegroupedMinSANs || math.Float64bits(got) != math.Float64bits(leftToRight) {
							t.Fatalf("rtt %v loss %v: HandshakeTime(%+v) = %v, QUICHandshakeTime %v", p.RTTMs, p.LossRate, s, got, want)
						}
						regrouped++
					}
				}
			}
		}
	}
	if regrouped == 0 {
		t.Error("no case differs from QUICHandshakeTime's grouping: drop quicRegroupedMinSANs")
	}
}

// Chain terms — extra records, CertVerifyMs, the per-SAN cost — apply
// to full handshakes only; a resumed session presents no chain.
func TestResumedSetupPresentsNoChain(t *testing.T) {
	p := DefaultParams()
	for _, quic := range bools {
		for _, token := range bools {
			bare := p.SetupMs(Setup{QUIC: quic, Resumed: true, TokenHit: token})
			big := p.SetupMs(Setup{QUIC: quic, Resumed: true, TokenHit: token, SANs: 750, Records: 3})
			if bare != big {
				t.Errorf("quic=%v token=%v: resumed setup with a 750-SAN, 3-record chain = %v, bare = %v", quic, token, big, bare)
			}
		}
	}
	if got, want := p.SetupMs(Setup{Resumed: true}), p.RTTMs+p.TLSRoundTrips*p.RTTMs; got != want {
		t.Errorf("resumed TCP+TLS setup = %v, want connect + handshake round trips %v", got, want)
	}
}

// With no jitter, ConnectTime (TCP only) plus HandshakeTime is SetupMs.
func TestHandshakeTimeIsSetupMsWithoutConnect(t *testing.T) {
	p := DefaultParams()
	p.JitterMs = 0
	n := New(p, 1)
	for _, s := range setupShapes() {
		got := n.HandshakeTime(s)
		if !s.QUIC {
			got = n.ConnectTime() + got
		}
		if want := p.SetupMs(s); got != want {
			t.Errorf("%+v: phases sum to %v, SetupMs = %v", s, got, want)
		}
	}
}

// QUIC's round trips by warm state: 0-RTT needs ticket and token, a
// missing token costs the Retry round trip.
func TestQUICRoundTrips(t *testing.T) {
	p := DefaultParams()
	cases := []struct {
		resumed, token bool
		rtts           float64
	}{
		{true, true, 0},
		{true, false, 2},
		{false, true, 1},
		{false, false, 2},
	}
	for _, c := range cases {
		want := c.rtts * p.RTTMs
		if !c.resumed {
			want += p.CertVerifyMs
		}
		if got := p.SetupMs(Setup{QUIC: true, Resumed: c.resumed, TokenHit: c.token}); got != want {
			t.Errorf("resumed=%v token=%v: SetupMs = %v, want %v RTTs = %v", c.resumed, c.token, got, c.rtts, want)
		}
	}
}

func setupShapes() []Setup {
	var shapes []Setup
	for _, quic := range bools {
		for _, resumed := range bools {
			for _, token := range bools {
				for _, sans := range []int{0, 3} {
					for _, records := range []int{0, 1, 3} {
						shapes = append(shapes, Setup{QUIC: quic, Resumed: resumed, TokenHit: token, SANs: sans, Records: records})
					}
				}
			}
		}
	}
	return shapes
}

// Every setup shape consumes exactly one jitter draw: after pricing
// any of them, the next draw matches an identically seeded network's.
func TestHandshakeTimeStreamContract(t *testing.T) {
	params := DefaultParams()
	wantNext := New(params, 42)
	wantNext.Float64()
	want := wantNext.Float64()
	for _, s := range setupShapes() {
		n := New(params, 42)
		n.HandshakeTime(s)
		if next := n.Float64(); next != want {
			t.Fatalf("%+v consumed a different number of draws (next draw %v, want %v)", s, next, want)
		}
	}
}
