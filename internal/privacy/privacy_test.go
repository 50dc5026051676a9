package privacy

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"respectorigin/internal/core"
	"respectorigin/internal/har"
	"respectorigin/internal/webgen"
)

func testPage(t *testing.T) *har.Page {
	t.Helper()
	cfg := webgen.DefaultConfig()
	cfg.Sites = 40
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Pages {
		hosts := map[string]bool{}
		for _, e := range p.Entries {
			hosts[e.Host] = true
		}
		if len(hosts) >= 5 {
			return p
		}
	}
	t.Fatal("no multi-host page")
	return nil
}

func TestBaselineLeaksEveryFreshHost(t *testing.T) {
	p := testPage(t)
	e := Analyze(p, ClientConfig{})
	if e.DNSQueries == 0 || e.TLSHandshakes == 0 {
		t.Fatalf("no events: %+v", e)
	}
	if len(e.CleartextDNSHosts) == 0 || len(e.CleartextSNIHosts) == 0 {
		t.Fatal("baseline leaked nothing")
	}
	// Every host with a fresh DNS query leaks via DNS.
	fresh := map[string]bool{}
	for _, ent := range p.Entries {
		if ent.NewDNS {
			fresh[ent.Host] = true
		}
	}
	if len(e.CleartextDNSHosts) != len(fresh) {
		t.Errorf("leaked %d DNS hosts, want %d", len(e.CleartextDNSHosts), len(fresh))
	}
}

func TestEncryptionHidesButKeepsEvents(t *testing.T) {
	p := testPage(t)
	base := Analyze(p, ClientConfig{})
	enc := Analyze(p, ClientConfig{EncryptedDNS: true, EncryptedClientHello: true})
	if len(enc.LeakedHosts()) != 0 {
		t.Errorf("encryption leaked %v", enc.LeakedHosts())
	}
	// The network events are unchanged: encryption costs the same RTTs.
	if enc.DNSQueries != base.DNSQueries || enc.TLSHandshakes != base.TLSHandshakes {
		t.Errorf("encryption changed event counts: %+v vs %+v", enc, base)
	}
}

func TestCoalescingRemovesEventsAndLeaks(t *testing.T) {
	p := testPage(t)
	base := Analyze(p, ClientConfig{})
	coal := Analyze(p, ClientConfig{Coalescing: true})
	if coal.DNSQueries >= base.DNSQueries {
		t.Errorf("coalescing did not reduce DNS events: %d vs %d", coal.DNSQueries, base.DNSQueries)
	}
	if coal.TLSHandshakes >= base.TLSHandshakes {
		t.Errorf("coalescing did not reduce handshakes: %d vs %d", coal.TLSHandshakes, base.TLSHandshakes)
	}
	if len(coal.LeakedHosts()) >= len(base.LeakedHosts()) {
		t.Errorf("coalescing did not reduce leaked hosts: %d vs %d",
			len(coal.LeakedHosts()), len(base.LeakedHosts()))
	}
}

func TestLeakedHostsUnion(t *testing.T) {
	e := Exposure{
		CleartextDNSHosts: []string{"b.example", "a.example"},
		CleartextSNIHosts: []string{"b.example", "c.example"},
	}
	want := []string{"a.example", "b.example", "c.example"}
	if got := e.LeakedHosts(); !reflect.DeepEqual(got, want) {
		t.Errorf("union = %v", got)
	}
}

func TestCorpusScenarioOrdering(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 300
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := AnalyzeCorpus(ds.Pages, StandardScenarios(), 2)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	baseline, coalOnly, encOnly, both := rows[0], rows[1], rows[2], rows[3]

	// Coalescing reduces leaked hosts AND events.
	if coalOnly.MedianLeakedHosts >= baseline.MedianLeakedHosts {
		t.Error("coalescing did not reduce median leaked hosts")
	}
	if coalOnly.MedianHandshakes >= baseline.MedianHandshakes {
		t.Error("coalescing did not reduce median handshakes")
	}
	// Encryption zeroes leaks but keeps event counts.
	if encOnly.MedianLeakedHosts != 0 {
		t.Errorf("DoH+ECH still leaks %.0f hosts", encOnly.MedianLeakedHosts)
	}
	if encOnly.MedianHandshakes != baseline.MedianHandshakes {
		t.Error("encryption changed handshake count")
	}
	// Both: zero leaks and fewer events.
	if both.MedianLeakedHosts != 0 || both.MedianHandshakes >= baseline.MedianHandshakes {
		t.Errorf("combined scenario wrong: %+v", both)
	}

	txt := Report(rows)
	if !strings.Contains(txt, "Privacy exposure") || !strings.Contains(txt, "DoH") {
		t.Error("report format")
	}
}

// refAnalyze is Analyze as it was before it asked the model which
// entries coalesce: it counted over the page core.Reconstruct clones.
func refAnalyze(p *har.Page, cfg ClientConfig) Exposure {
	page := p
	if cfg.Coalescing {
		page = core.Reconstruct(p, core.ModeOrigin, 0)
	}
	var e Exposure
	dnsSeen, sniSeen := map[string]bool{}, map[string]bool{}
	for i := range page.Entries {
		ent := &page.Entries[i]
		if ent.NewDNS {
			e.DNSQueries++
			if !cfg.EncryptedDNS && !dnsSeen[ent.Host] {
				dnsSeen[ent.Host] = true
				e.CleartextDNSHosts = append(e.CleartextDNSHosts, ent.Host)
			}
		}
		if ent.NewTLS {
			e.TLSHandshakes++
			if !cfg.EncryptedClientHello && !sniSeen[ent.Host] {
				sniSeen[ent.Host] = true
				e.CleartextSNIHosts = append(e.CleartextSNIHosts, ent.Host)
			}
		}
	}
	sort.Strings(e.CleartextDNSHosts)
	sort.Strings(e.CleartextSNIHosts)
	return e
}

// Analyze answers what counting over the reconstructed page answered,
// for every page and scenario, and the corpus medians do not depend on
// the worker count.
func TestAnalyzeMatchesReconstructedPage(t *testing.T) {
	scenarios := append(StandardScenarios(),
		Scenario{"origin coalescing + ECH", ClientConfig{Coalescing: true, EncryptedClientHello: true}})
	for _, a := range webgen.Archetypes() {
		cfg := webgen.DefaultConfig()
		cfg.Sites = 300
		cfg.Archetype = a
		ds, err := webgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ds.Pages {
			for _, sc := range scenarios {
				got, want := Analyze(p, sc.Cfg), refAnalyze(p, sc.Cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s rank %d, %s:\n got %+v\nwant %+v", a, p.Rank, sc.Name, got, want)
				}
				if n := len(want.LeakedHosts()); got.leaked() != n {
					t.Fatalf("%s rank %d, %s: leaked() = %d, LeakedHosts lists %d", a, p.Rank, sc.Name, got.leaked(), n)
				}
			}
		}
		want := AnalyzeCorpus(ds.Pages, scenarios, 1)
		for _, w := range []int{4, 16} {
			if got := AnalyzeCorpus(ds.Pages, scenarios, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d:\n got %+v\nwant %+v", a, w, got, want)
			}
		}
	}
}
