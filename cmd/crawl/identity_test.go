package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"respectorigin/internal/clitest"
)

// TestCrawlByteIdentity holds the corpus bytes of the built crawl binary
// fixed against its sidecars: a traced crawl writes the corpus an
// untraced crawl writes (and report -funnel reads that trace), and the
// warm-path cache flags leave it unchanged whether the cache is off
// (-revisits alone) or on (-cache prints its savings table to stderr).
func TestCrawlByteIdentity(t *testing.T) {
	dir := t.TempDir()
	crawl, report := clitest.Build(t, "cmd/crawl"), clitest.Build(t, "cmd/report")
	crawlTo := func(name string, extra ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, name)
		clitest.Run(t, crawl, append([]string{"-sites", "400", "-seed", "1", "-out", out}, extra...)...)
		return clitest.ReadFile(t, out)
	}

	base := crawlTo("base.ndjson")
	if len(base) == 0 {
		t.Fatal("crawl wrote an empty corpus")
	}
	trace := filepath.Join(dir, "trace.ndjson")
	for _, c := range []struct {
		name  string
		extra []string
	}{
		{"traced", []string{"-trace", trace}},
		{"cache off, -revisits 5", []string{"-revisits", "5"}},
		{"-cache -revisits 2", []string{"-cache", "-revisits", "2"}},
	} {
		if got := crawlTo("variant.ndjson", c.extra...); !bytes.Equal(got, base) {
			t.Errorf("%s: corpus differs from the plain crawl (%d vs %d bytes)", c.name, len(got), len(base))
		}
	}
	if funnel := clitest.Run(t, report, "-funnel", trace); len(funnel) == 0 {
		t.Error("report -funnel printed nothing for the crawl trace")
	}
}
