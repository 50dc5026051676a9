package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"respectorigin/internal/clitest"
)

// TestCorpusInterchange drives the built crawl and report binaries
// through every way a corpus reaches report, against one direct NDJSON
// crawl as the reference.
func TestCorpusInterchange(t *testing.T) {
	dir := t.TempDir()
	crawl, report := clitest.Build(t, "cmd/crawl"), clitest.Build(t, "cmd/report")
	path := func(name string) string { return filepath.Join(dir, name) }
	crawlTo := func(out string, extra ...string) {
		t.Helper()
		clitest.Run(t, crawl, append([]string{"-sites", "400", "-seed", "1", "-out", out}, extra...)...)
	}

	ndjson := path("d1.ndjson")
	crawlTo(ndjson)
	want := clitest.ReadFile(t, ndjson)
	if len(want) == 0 {
		t.Fatal("crawl wrote an empty corpus")
	}

	// The columnar encoding is losslessly interchangeable with NDJSON,
	// and a corrupted columnar corpus fails loudly instead of decoding.
	t.Run("columnar", func(t *testing.T) {
		col := path("d1.col")
		crawlTo(col, "-format", "columnar")
		if got := clitest.Run(t, report, "-in", col, "-reencode"); !bytes.Equal(got, want) {
			t.Errorf("columnar corpus re-encodes to %d bytes of NDJSON, direct crawl wrote %d", len(got), len(want))
		}
		trunc := path("d1_trunc.col")
		if err := os.WriteFile(trunc, clitest.ReadFile(t, col)[:1000], 0o644); err != nil {
			t.Fatal(err)
		}
		clitest.RunExpectFail(t, report, "-in", trunc, "-reencode")
	})

	// Two OS processes crawl disjoint rank shards; merged through their
	// manifests, corpus bytes and report text match the single-process
	// run, and overlapping manifests are rejected at merge time.
	t.Run("shards", func(t *testing.T) {
		s0, s1 := path("s0.col"), path("s1.col")
		crawlTo(s0, "-format", "columnar", "-shards", "2", "-shard", "0")
		crawlTo(s1, "-format", "columnar", "-shards", "2", "-shard", "1")
		m0, m1 := s0+".manifest.json", s1+".manifest.json"
		if got := clitest.Run(t, report, "-manifest", m0+","+m1, "-reencode"); !bytes.Equal(got, want) {
			t.Errorf("merged shards re-encode to %d bytes of NDJSON, single-process crawl wrote %d", len(got), len(want))
		}
		single := clitest.Run(t, report, "-in", ndjson)
		if got := clitest.Run(t, report, "-manifest", m0+","+m1); len(single) == 0 || !bytes.Equal(got, single) {
			t.Errorf("report over merged shards differs from report over the single-process corpus (%d vs %d bytes)", len(got), len(single))
		}
		clitest.RunExpectFail(t, report, "-manifest", m0+","+m0, "-reencode")
	})
}

// TestInWorkersIdentical: report -in folds a corpus as it streams, in
// blocks across -workers goroutines. The default output and the
// -proto-sweep and -cache tables are byte-identical at 1, 4 and 16
// workers, and the two replay tables are what report prints when it
// generates the same corpus in process (-sites 400 -seed 1). The
// default output is left out of that comparison: a corpus file keeps
// no failed attempts, so its Table 1 failure count differs.
func TestInWorkersIdentical(t *testing.T) {
	col := filepath.Join(t.TempDir(), "d.col")
	crawl, report := clitest.Build(t, "cmd/crawl"), clitest.Build(t, "cmd/report")
	clitest.Run(t, crawl, "-sites", "400", "-seed", "1", "-format", "columnar", "-out", col)
	for _, mode := range [][]string{nil, {"-proto-sweep"}, {"-cache"}} {
		want := clitest.Run(t, report, append([]string{"-in", col, "-workers", "1"}, mode...)...)
		if len(want) == 0 {
			t.Fatalf("report -in %v printed nothing", mode)
		}
		if mode != nil {
			if gen := clitest.Run(t, report, append([]string{"-sites", "400", "-seed", "1"}, mode...)...); !bytes.Equal(gen, want) {
				t.Errorf("report -in %v differs from report -sites 400 -seed 1 %v (%d vs %d bytes)", mode, mode, len(want), len(gen))
			}
		}
		for _, w := range []string{"4", "16"} {
			if got := clitest.Run(t, report, append([]string{"-in", col, "-workers", w}, mode...)...); !bytes.Equal(got, want) {
				t.Errorf("report -in %v -workers %s differs from -workers 1 (%d vs %d bytes)", mode, w, len(got), len(want))
			}
		}
	}
}
