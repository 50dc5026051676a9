package report

import (
	"reflect"
	"testing"

	"respectorigin/internal/webgen"
)

func archetypeCorpus(t *testing.T, a webgen.Archetype, sites, workers int) *Corpus {
	t.Helper()
	cfg := webgen.DefaultConfig()
	cfg.Sites = sites
	cfg.Archetype = a
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewCorpusWorkers(ds, workers)
}

// A replayer carried from page to page — its environment's maps and
// slices, its browsers' pools — must count exactly what one built for
// the page alone counts, visit the hosts a fresh one visits, and leave
// nothing of one page for the next to see.
func TestPolicyReplayerReuseMatchesFresh(t *testing.T) {
	for _, a := range webgen.Archetypes() {
		c := archetypeCorpus(t, a, 300, 1)
		reused := newPolicyReplayer()
		for _, p := range c.DS.Pages {
			fresh := newPolicyReplayer()
			got, want := reused.replay(p), fresh.replay(p)
			if got != want {
				t.Fatalf("%s rank %d: reused replayer counted %v, a fresh one %v", a, p.Rank, got, want)
			}
			if hosts := fresh.env.Hosts(); !reflect.DeepEqual(reused.env.Hosts(), hosts) {
				t.Fatalf("%s rank %d: replayed hosts %v, a fresh replayer's %v", a, p.Rank, reused.env.Hosts(), hosts)
			}
		}
	}
}

// PolicyComparison keeps its working state per worker, so a pass over
// the corpus allocates for its result slices and for a replayer growing
// towards the largest page — measured 2.2 per page over these pages,
// where a replayer built for every page costs ≈ 150 — and renders the
// same bytes at any worker count. A corpus folds a part once, so each
// run measures a fresh corpus.
func TestPolicyComparisonAllocBudget(t *testing.T) {
	c := archetypeCorpus(t, "", 800, 1) // "" is the baseline universe
	wantStats, wantText := c.PolicyComparison()
	allocs := testing.AllocsPerRun(3, func() { NewCorpusWorkers(c.DS, 1).PolicyComparison() })
	if perPage := allocs / float64(len(c.DS.Pages)); perPage > 4 {
		t.Errorf("PolicyComparison allocates %.1f per page (%.0f over %d pages), want ≤ 4", perPage, allocs, len(c.DS.Pages))
	} else {
		t.Logf("%.2f allocations per page", perPage)
	}
	stats, text := NewCorpusWorkers(c.DS, 4).PolicyComparison()
	if text != wantText || !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("workers=4 differs from workers=1:\n%s\n--- workers=1 ---\n%s", text, wantText)
	}
}
