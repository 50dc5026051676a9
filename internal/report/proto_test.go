package report

import (
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/netsim"
	"respectorigin/internal/webgen"
)

// The rendered sweep table is byte-identical for any worker count —
// the acceptance gate for -proto-sweep determinism.
func TestProtoSweepTableWorkerInvariance(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 300
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := cache.Options{}
	p := netsim.DefaultParams()
	want := ProtoSweepTable(NewCorpusWorkers(ds, 1).Replay(2, opts, core.Protocols...), p, "inv")
	if want == "" {
		t.Fatal("empty sweep table")
	}
	for _, w := range []int{4, 16} {
		got := ProtoSweepTable(NewCorpusWorkers(ds, w).Replay(2, opts, core.Protocols...), p, "inv")
		if got != want {
			t.Errorf("workers=%d sweep table differs from workers=1:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// The warm h3 visit must beat the warm h1 visit on arithmetic setup
// cost (0-RTT plus token sharing versus keep-alive with full TLS), and
// the deployment-level sweep must stay consistent per visit.
func TestProtoSweepFrontierOrdering(t *testing.T) {
	c := testCorpus(t, 300)
	sweep := c.Replay(2, cache.Options{}, core.Protocols...)
	p := netsim.DefaultParams()
	byProto := map[core.Protocol]core.VisitCosts{}
	for _, pc := range sweep {
		for v, vc := range pc.Visits {
			if !vc.Consistent() {
				t.Fatalf("%s visit %d: inconsistent ledger %+v", pc.Proto, v+1, vc)
			}
		}
		byProto[pc.Proto] = pc.Visits[len(pc.Visits)-1]
	}
	h1 := setupMs(byProto[core.ProtoH1], core.ProtoH1, p)
	h2 := setupMs(byProto[core.ProtoH2], core.ProtoH2, p)
	h3 := setupMs(byProto[core.ProtoH3], core.ProtoH3, p)
	if !(h3 < h2 && h2 < h1) {
		t.Fatalf("warm setup cost not ordered h3 < h2 < h1: h1=%.1f h2=%.1f h3=%.1f", h1, h2, h3)
	}
	if byProto[core.ProtoH3].ZeroRTT == 0 {
		t.Fatal("warm h3 visit achieved no 0-RTT handshakes")
	}
}
