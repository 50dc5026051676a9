package webgen

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"respectorigin/internal/asn"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
)

// registerProviders and RebuildASDB are the longest-prefix-match
// database crawl → report used to build from a corpus's pages to name
// an AS. OrgOf replaced it; they stay here as the reference OrgOf and
// the generator's addressing are held to.
func registerProviders(db *asn.DB) {
	for _, p := range providers {
		register(db, providerPrefixes[p.Name], p.ASN, p.Name)
	}
}

// register adds one prefix to db through its text loader.
func register(db *asn.DB, prefix netip.Prefix, as uint32, org string) {
	if _, err := db.Load(strings.NewReader(fmt.Sprintf("%v %d %s\n", prefix, as, org))); err != nil {
		panic(err)
	}
}

func RebuildASDB(pages []*har.Page) *asn.DB {
	db := asn.NewDB()
	registerProviders(db)
	seen := map[uint32]bool{}
	for _, page := range pages {
		for i := range page.Entries {
			e := &page.Entries[i]
			as := e.ServerASN
			if as == 0 || seen[as] {
				continue
			}
			seen[as] = true
			if db.LookupASN(e.ServerIP) != 0 {
				continue
			}
			if as >= tailASNBase {
				idx := int(as - tailASNBase)
				register(db, tailPrefix(idx), as, fmt.Sprintf("Tail-AS-%d", idx))
			} else {
				// Unknown AS: register the /16 around the observed IP.
				register(db, netip.PrefixFrom(e.ServerIP, 16).Masked(), as, fmt.Sprintf("AS-%d", as))
			}
		}
	}
	return db
}

// checkASes holds a corpus to what the database used to provide: OrgOf
// names every entry's AS as the database rebuilt from the pages does,
// and every address — connected or merely answered — lies in the prefix
// of the AS its entry is stamped with and looks up to that AS, so the
// stamp is what a longest-prefix match would have found.
func checkASes(t *testing.T, name string, ds *Dataset) {
	t.Helper()
	db := RebuildASDB(ds.Pages)
	for _, p := range ds.Pages {
		for i := range p.Entries {
			e := &p.Entries[i]
			as := e.ServerASN
			if got, want := OrgOf(as), db.Org(as); got != want || want == "" {
				t.Fatalf("%s rank %d: OrgOf(%d) = %q, reference database says %q", name, p.Rank, as, got, want)
			}
			prefix := tailPrefix(int(as) - tailASNBase)
			if as < tailASNBase {
				prefix = providerPrefixes[OrgOf(as)]
			}
			for _, a := range append([]netip.Addr{e.ServerIP}, e.DNSAnswer...) {
				if !prefix.Contains(a) {
					t.Fatalf("%s rank %d: %v (%s) is outside AS%d's prefix %v", name, p.Rank, a, e.Host, as, prefix)
				}
				if got := db.LookupASN(a); got != as {
					t.Fatalf("%s rank %d: %v looks up to AS%d, entry says AS%d (%s)", name, p.Rank, a, got, as, e.Host)
				}
			}
		}
	}
}

// The name of an AS is a function of its number, and its addresses of
// its prefix: three archetypes × seeds 1–3 × 2 000 sites.
func TestOrgOfMatchesReferenceDatabase(t *testing.T) {
	for _, a := range Archetypes() {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := DefaultConfig()
			cfg.Sites = 2000
			cfg.Seed = seed
			cfg.Archetype = a
			ds, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkASes(t, fmt.Sprintf("%s seed %d", a, seed), ds)
		}
	}
	// An AS from outside the universe, and no AS at all.
	stray := &har.Page{Entries: []har.Entry{
		{ServerIP: netip.MustParseAddr("203.0.113.9"), ServerASN: 64500},
		{ServerIP: netip.MustParseAddr("198.51.100.1")},
	}}
	db := RebuildASDB([]*har.Page{stray})
	for _, as := range []uint32{64500, 0} {
		if got, want := OrgOf(as), db.Org(as); got != want {
			t.Errorf("OrgOf(%d) = %q, reference database says %q", as, got, want)
		}
	}
	if OrgOf(64500) != "AS-64500" || OrgOf(0) != "" {
		t.Errorf("OrgOf(64500) = %q, OrgOf(0) = %q", OrgOf(64500), OrgOf(0))
	}
}

func TestASDBCoversAllIPs(t *testing.T) {
	checkASes(t, "baseline seed 1", genSmall(t, 300))
}

// The reference database itself survives a corpus round trip.
func TestRebuildASDBRoundTrip(t *testing.T) {
	ds := genSmall(t, 200)
	pages, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(ndjsonBytes(t, ds)), corpus.FormatNDJSON))
	if err != nil {
		t.Fatal(err)
	}
	db := RebuildASDB(pages)
	for _, p := range pages {
		for i := range p.Entries {
			e := &p.Entries[i]
			if got := db.LookupASN(e.ServerIP); got != e.ServerASN {
				t.Fatalf("rebuilt DB: IP %v -> AS%d, want AS%d (%s)", e.ServerIP, got, e.ServerASN, e.Host)
			}
		}
	}
	if db.Org(13335) != "Cloudflare" {
		t.Error("provider org lost")
	}
}
