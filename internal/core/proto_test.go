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
	for _, p := range protoTestPages(t) {
		for _, proto := range []Protocol{ProtoH2, ProtoH3} {
			vc := ProtocolReplayCosts(p, proto, nil)
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
		need := ProtocolReplayCosts(p, ProtoH2, nil).LookupsNeeded()
		for _, proto := range Protocols {
			for v, vc := range ProtocolReplaySequence(p, 3, cache.Options{}, proto) {
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
	opts := cache.Options{}
	pages := protoTestPages(t)
	var warmZeroRTT int
	for _, p := range pages {
		for proto, seq := range map[Protocol][]VisitCosts{
			ProtoH1: ProtocolReplaySequence(p, 3, opts, ProtoH1),
			ProtoH2: ProtocolReplaySequence(p, 3, opts, ProtoH2),
			ProtoH3: ProtocolReplaySequence(p, 3, opts, ProtoH3),
		} {
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
