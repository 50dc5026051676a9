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
// every per-visit identity field must agree between an h2 and an h3 run
// of the same seed.
func TestProtoToggleLeavesUnrelatedStreamsFixed(t *testing.T) {
	collect := func(p browser.Protocol) []visit {
		cfg := testConfig()
		cfg.Users = 800
		cfg.Proto = p
		cfg = cfg.withDefaults()
		arrivals := cfg.arrivalTimes()
		env := buildCDN(cfg)
		sc := newUserScratch(cfg)
		var out []visit
		for i := 0; i < cfg.Users; i++ {
			out = append(out, simulateUser(cfg, env, sc, i, arrivals[i])...)
		}
		return out
	}
	h2 := collect(browser.ProtoH2)
	h3 := collect(browser.ProtoH3)
	if len(h2) != len(h3) {
		t.Fatalf("visit counts differ: h2 %d, h3 %d", len(h2), len(h3))
	}
	for i := range h2 {
		a, b := h2[i], h3[i]
		if a.UserID != b.UserID || a.Seq != b.Seq || a.ArrivalMs != b.ArrivalMs || a.PoP != b.PoP {
			t.Fatalf("visit %d identity shifted with the protocol:\n h2 %+v\n h3 %+v", i, a, b)
		}
		if a.Requests != b.Requests {
			t.Fatalf("visit %d request count shifted with the protocol: h2 %d, h3 %d", i, a.Requests, b.Requests)
		}
	}
}
