package loadgen

import (
	"bytes"
	"testing"

	"respectorigin/internal/browser"
)

// The protocol is configuration, never a random draw: the zero-value
// config (pre-protocol behaviour) and an explicit ProtoH2 must produce
// byte-identical summaries, pinning that threading Proto through the
// simulation shifted no RNG stream.
func TestExplicitH2MatchesDefaultByteForByte(t *testing.T) {
	run := func(p browser.Protocol) []byte {
		cfg := testConfig()
		cfg.Users = 1500
		cfg.Proto = p
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	def := run(browser.Protocol(0))
	h2 := run(browser.ProtoH2)
	if !bytes.Equal(def, h2) {
		t.Fatalf("explicit h2 differs from default:\n got %s\nwant %s", h2, def)
	}
}

// Toggling the protocol must not shift the seeded streams of unrelated
// phases: the arrival schedule, user profiles, visit counts, and visit
// arrival times are all drawn before any protocol-dependent branch, so
// every user must make as many visits in an h2 as in an h3 run of the
// same seed, each at the same instant, PoP and request count.
func TestProtoToggleLeavesUnrelatedStreamsFixed(t *testing.T) {
	collect := func(p browser.Protocol) [][]visit {
		cfg := testConfig()
		cfg.Users = 800
		cfg.Proto = p
		cfg = cfg.withDefaults()
		arrivals := cfg.arrivalTimes()
		env := buildCDN(cfg)
		sc := newUserScratch(cfg)
		out := make([][]visit, cfg.Users)
		for i := range out {
			out[i] = simulateUser(cfg, env, sc, i, arrivals[i])
		}
		return out
	}
	h2 := collect(browser.ProtoH2)
	h3 := collect(browser.ProtoH3)
	for uid := range h2 {
		if len(h2[uid]) != len(h3[uid]) {
			t.Fatalf("user %d: visit counts differ: h2 %d, h3 %d", uid, len(h2[uid]), len(h3[uid]))
		}
		for seq := range h2[uid] {
			a, b := h2[uid][seq], h3[uid][seq]
			if a.ArrivalMs != b.ArrivalMs || a.PoP != b.PoP {
				t.Fatalf("user %d visit %d identity shifted with the protocol:\n h2 %+v\n h3 %+v", uid, seq, a, b)
			}
			if a.Requests != b.Requests {
				t.Fatalf("user %d visit %d request count shifted with the protocol: h2 %d, h3 %d", uid, seq, a.Requests, b.Requests)
			}
		}
	}
}
