package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"respectorigin/internal/clitest"
)

// TestCrawlByteIdentity holds the corpus bytes of the built crawl binary
// fixed against its sidecar: a traced crawl writes the corpus an
// untraced crawl writes, and report -funnel reads that trace.
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
	if got := crawlTo("traced.ndjson", "-trace", trace); !bytes.Equal(got, base) {
		t.Errorf("traced: corpus differs from the plain crawl (%d vs %d bytes)", len(got), len(base))
	}
	if funnel := clitest.Run(t, report, "-funnel", trace); len(funnel) == 0 {
		t.Error("report -funnel printed nothing for the crawl trace")
	}
}
