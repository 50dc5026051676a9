package core

import (
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/har"
	"respectorigin/internal/webgen"
)

func protoTestPages(t *testing.T) []*har.Page {
	t.Helper()
	cfg := webgen.DefaultConfig()
	cfg.Sites = 150
	cfg.Seed = 5
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Pages
}

// A nil cache replays the pure cold visit. Under h2 and h3 the recorded
// structure holds, so the ledger must reproduce the page's measured
// §4.2 counts exactly — the link from VisitCosts to the paper's numbers.
// h1 reinterprets connections but never DNS: the lookup demand of a
// page is the same under every protocol, cold or warm.
func TestColdReplayReproducesMeasuredCounts(t *testing.T) {
	var cold Replayer
	warm := NewReplayer(cache.Options{})
	for _, p := range protoTestPages(t) {
		for _, proto := range []Protocol{ProtoH2, ProtoH3} {
			vc := cold.visit(p, proto)
			if vc.DNSQueries != p.DNSQueries() || vc.FullHandshakes != p.TLSConnections() {
				t.Fatalf("page %s %s: cold replay paid %d queries / %d handshakes, page measured %d / %d",
					p.Host, proto, vc.DNSQueries, vc.FullHandshakes, p.DNSQueries(), p.TLSConnections())
			}
			if vc.Validations != vc.FullHandshakes || vc.ResumedTLS != 0 || vc.DNSCacheHits+vc.DNSNegHits != 0 {
				t.Fatalf("page %s %s: cold replay used warm state: %+v", p.Host, proto, vc)
			}
			if !vc.Consistent() {
				t.Fatalf("page %s %s: inconsistent cold ledger %+v", p.Host, proto, vc)
			}
		}
		need := cold.visit(p, ProtoH2).LookupsNeeded()
		for _, proto := range Protocols {
			seq := make([]VisitCosts, 3)
			warm.Sequence(p, proto, seq)
			for v, vc := range seq {
				if vc.LookupsNeeded() != need {
					t.Fatalf("page %s %s visit %d: lookup demand %d, cold h2 demand %d",
						p.Host, proto, v+1, vc.LookupsNeeded(), need)
				}
			}
		}
	}
}

// Every h3 visit ledger must hold the exact address-validation
// identity (every fresh connection is a token hit or a validation),
// and h1/h2 ledgers must carry no h3 state at all.
func TestProtocolReplayLedgerIdentities(t *testing.T) {
	r := NewReplayer(cache.Options{})
	pages := protoTestPages(t)
	var warmZeroRTT int
	for _, p := range pages {
		for _, proto := range Protocols {
			seq := make([]VisitCosts, 3)
			r.Sequence(p, proto, seq)
			for v, vc := range seq {
				if !vc.Consistent() {
					t.Fatalf("page %s %s visit %d: inconsistent ledger %+v", p.Host, proto, v+1, vc)
				}
				if proto != ProtoH3 {
					if vc.ZeroRTT != 0 || vc.AddrTokenHits != 0 || vc.AddrValidations != 0 {
						t.Fatalf("page %s %s visit %d: non-h3 ledger carries h3 state %+v", p.Host, proto, v+1, vc)
					}
					continue
				}
				fresh := vc.ResumedTLS + vc.FullHandshakes - p.ExtraTLS
				if got := vc.AddrTokenHits + vc.AddrValidations - p.ExtraTLS; fresh > 0 && got != fresh {
					t.Fatalf("page %s h3 visit %d: token accounting %d != fresh conns %d (%+v)",
						p.Host, v+1, got, fresh, vc)
				}
				if v > 0 {
					warmZeroRTT += vc.ZeroRTT
				}
			}
		}
	}
	if warmZeroRTT == 0 {
		t.Fatal("no warm h3 visit achieved 0-RTT across the corpus — tokens or tickets are not redeeming")
	}
}

// One Replayer reset per page is the fresh-cache-per-page replay it
// replaced: every page's sequence equals what a new Replayer gives,
// under every protocol, with tickets on and off, whatever pages the
// shared one replayed before.
func TestReplayerResetMatchesFresh(t *testing.T) {
	pages := protoTestPages(t)
	for _, opts := range []cache.Options{{}, {TicketLifetimeSeconds: cache.TicketsDisabled}} {
		shared := NewReplayer(opts)
		for i, p := range pages {
			proto := Protocols[i%len(Protocols)]
			got, want := make([]VisitCosts, 4), make([]VisitCosts, 4)
			shared.Sequence(p, proto, got)
			NewReplayer(opts).Sequence(p, proto, want)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("opts %+v page %s %s visit %d: shared replayer %+v, fresh %+v",
						opts, p.Host, proto, v+1, got[v], want[v])
				}
			}
		}
	}
}

// A warmed Replayer replays page visits without allocating: the cache
// keeps its maps, DNS entries, grant queues and index nodes across
// Reset, the memo hashes in its own scratch, and the keep-alive set is
// cleared, not rebuilt.
func TestReplayerSteadyStateAllocs(t *testing.T) {
	pages := protoTestPages(t)[:40]
	acc := make([]VisitCosts, 4)
	for _, proto := range Protocols {
		r := NewReplayer(cache.Options{})
		allocs := testing.AllocsPerRun(5, func() {
			for _, p := range pages {
				r.Sequence(p, proto, acc)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per pass over %d pages × %d visits, want 0", proto, allocs, len(pages), len(acc))
		}
	}
}
