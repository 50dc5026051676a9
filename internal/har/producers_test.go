package har_test

import (
	"testing"

	"respectorigin/internal/core"
	"respectorigin/internal/webgen"
)

// TestProducersMakeValidPages holds the page producers outside this
// package to Page's invariants: every generated page (webgen) and both
// coalesced reconstructions of it (core.Reconstruct) validate.
func TestProducersMakeValidPages(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 300
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Pages) == 0 {
		t.Fatal("no pages generated")
	}
	for _, p := range ds.Pages {
		if err := p.Validate(); err != nil {
			t.Fatalf("generated page %s invalid: %v", p.URL, err)
		}
		for _, mode := range []core.Mode{core.ModeIP, core.ModeOrigin} {
			if err := core.Reconstruct(p, mode, 0).Validate(); err != nil {
				t.Fatalf("page %s reconstructed under %v invalid: %v", p.URL, mode, err)
			}
		}
	}
}
