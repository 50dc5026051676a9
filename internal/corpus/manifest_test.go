package corpus_test

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
)

// writeShard writes pages[lo-1:hi-1] (ranks lo..hi-1) as one shard
// file plus its single-shard manifest, mirroring what a `crawl -shards
// N -shard i` process emits, and returns the manifest path.
func writeShard(t *testing.T, dir string, f corpus.Format, pages []*har.Page, id, lo, hi, sites int) string {
	t.Helper()
	path := filepath.Join(dir, string(f)+shardName(id))
	sw, err := corpus.CreateShard(path, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if p.Rank >= lo && p.Rank < hi {
			if err := sw.Write(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	m := corpus.Manifest{
		Schema: corpus.ManifestSchema, Format: f, Version: f.Version(),
		Seed: 1, Sites: sites,
		Shards: []corpus.ShardInfo{sw.Info(id, lo, hi)},
	}
	mp := path + ".manifest.json"
	if err := corpus.WriteManifest(mp, m); err != nil {
		t.Fatal(err)
	}
	return mp
}

func shardName(id int) string { return "-shard" + string(rune('0'+id)) + ".corpus" }

func TestShardRangePartitions(t *testing.T) {
	for _, tc := range []struct{ sites, shards int }{{400, 2}, {10, 3}, {1, 2}, {7, 7}, {5, 8}} {
		next := 1
		total := 0
		for i := 0; i < tc.shards; i++ {
			lo, hi := corpus.ShardRange(tc.sites, tc.shards, i)
			if lo != next {
				t.Fatalf("sites=%d shards=%d: shard %d starts at %d, want %d", tc.sites, tc.shards, i, lo, next)
			}
			if hi < lo {
				t.Fatalf("sites=%d shards=%d: shard %d range [%d,%d) inverted", tc.sites, tc.shards, i, lo, hi)
			}
			total += hi - lo
			next = hi
		}
		if next != tc.sites+1 || total != tc.sites {
			t.Fatalf("sites=%d shards=%d: ranges cover %d ranks ending at %d", tc.sites, tc.shards, total, next)
		}
	}
}

func TestManifestMergeRoundTrip(t *testing.T) {
	for _, f := range []corpus.Format{corpus.FormatNDJSON, corpus.FormatColumnar} {
		pages := testPages(41)
		dir := t.TempDir()
		lo0, hi0 := corpus.ShardRange(41, 2, 0)
		lo1, hi1 := corpus.ShardRange(41, 2, 1)
		m0 := writeShard(t, dir, f, pages, 0, lo0, hi0, 41)
		m1 := writeShard(t, dir, f, pages, 1, lo1, hi1, 41)

		r, err := corpus.OpenManifest(m0, m1)
		if err != nil {
			t.Fatalf("%s: OpenManifest: %v", f, err)
		}
		got, err := corpus.ReadAll(r)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: reading merged shards: %v", f, err)
		}
		if len(got) != len(pages) {
			t.Fatalf("%s: merged read returned %d pages, want %d", f, len(got), len(pages))
		}
		for i := range got {
			if got[i].Rank != pages[i].Rank {
				t.Fatalf("%s: page %d has rank %d, want %d (rank order broken)", f, i, got[i].Rank, pages[i].Rank)
			}
		}
	}
}

func TestManifestMergeRejectsMismatchedRuns(t *testing.T) {
	base := corpus.Manifest{
		Schema: corpus.ManifestSchema, Format: corpus.FormatColumnar,
		Version: corpus.FormatColumnar.Version(), Seed: 1, Sites: 100,
		Shards: []corpus.ShardInfo{{ID: 0, RankLo: 1, RankHi: 51, Pages: 1, File: "a", Checksum: "x"}},
	}
	other := base
	other.Shards = []corpus.ShardInfo{{ID: 1, RankLo: 51, RankHi: 101, Pages: 1, File: "b", Checksum: "y"}}

	seed := other
	seed.Seed = 2
	if _, err := corpus.Merge(base, seed); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("merge across seeds: err = %v", err)
	}
	sites := other
	sites.Sites = 200
	if _, err := corpus.Merge(base, sites); err == nil || !strings.Contains(err.Error(), "sites") {
		t.Fatalf("merge across sites: err = %v", err)
	}
	format := other
	format.Format = corpus.FormatNDJSON
	format.Version = corpus.FormatNDJSON.Version()
	if _, err := corpus.Merge(base, format); err == nil {
		t.Fatal("merge across formats succeeded")
	}
}

func TestManifestChecksumMismatch(t *testing.T) {
	pages := testPages(10)
	dir := t.TempDir()
	mp := writeShard(t, dir, corpus.FormatColumnar, pages, 0, 1, 11, 10)
	m, err := corpus.ReadManifest(mp)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte in the middle of the shard file.
	raw, err := os.ReadFile(m.Shards[0].File)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(m.Shards[0].File, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := corpus.OpenManifest(mp)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = corpus.ReadAll(r)
	if err == nil {
		t.Fatal("corrupted shard file read cleanly")
	}
	// Either the decoder trips on the corruption or the checksum catches
	// it; a flipped byte that still decodes MUST be caught by checksum.
	if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "corpus:") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

func TestManifestChecksumCatchesCleanDecodeCorruption(t *testing.T) {
	// Append a trailing byte NDJSON decoding would never see consumed:
	// the drain ensures the hash still covers it.
	pages := testPages(5)
	dir := t.TempDir()
	mp := writeShard(t, dir, corpus.FormatNDJSON, pages, 0, 1, 6, 5)
	m, _ := corpus.ReadManifest(mp)
	f, err := os.OpenFile(m.Shards[0].File, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := corpus.OpenManifest(mp)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := corpus.ReadAll(r); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("appended byte not caught by checksum: err = %v", err)
	}
}

func TestManifestMissingShardFile(t *testing.T) {
	pages := testPages(10)
	dir := t.TempDir()
	mp := writeShard(t, dir, corpus.FormatColumnar, pages, 0, 1, 11, 10)
	m, _ := corpus.ReadManifest(mp)
	if err := os.Remove(m.Shards[0].File); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.OpenManifest(mp); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing shard file: err = %v", err)
	}
}

func TestManifestEmptyShardRoundTrips(t *testing.T) {
	for _, f := range []corpus.Format{corpus.FormatNDJSON, corpus.FormatColumnar} {
		dir := t.TempDir()
		// Shard over an empty rank range: zero pages, still a valid file.
		mp := writeShard(t, dir, f, nil, 0, 1, 1, 4)
		r, err := corpus.OpenManifest(mp)
		if err != nil {
			t.Fatalf("%s: OpenManifest on empty shard: %v", f, err)
		}
		got, err := corpus.ReadAll(r)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil || len(got) != 0 {
			t.Fatalf("%s: empty shard: %d pages, %v", f, len(got), err)
		}
	}
}

func TestManifestVersionMismatch(t *testing.T) {
	pages := testPages(4)
	dir := t.TempDir()
	mp := writeShard(t, dir, corpus.FormatColumnar, pages, 0, 1, 5, 4)
	raw, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(raw), `"version": 1`, `"version": 99`, 1)
	if doctored == string(raw) {
		t.Fatal("test setup: version field not found in manifest")
	}
	if err := os.WriteFile(mp, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.OpenManifest(mp); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("manifest version mismatch: err = %v", err)
	}
}

func TestManifestPageCountMismatch(t *testing.T) {
	pages := testPages(6)
	dir := t.TempDir()
	mp := writeShard(t, dir, corpus.FormatColumnar, pages, 0, 1, 7, 6)
	raw, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(raw), `"pages": 6`, `"pages": 7`, 1)
	if doctored == string(raw) {
		t.Fatal("test setup: pages field not found in manifest")
	}
	if err := os.WriteFile(mp, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := corpus.OpenManifest(mp)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := corpus.ReadAll(r); err == nil || !strings.Contains(err.Error(), "pages") {
		t.Fatalf("page-count mismatch: err = %v", err)
	}
}

func TestOpenSniffsFormats(t *testing.T) {
	pages := testPages(8)
	dir := t.TempDir()
	for _, f := range []corpus.Format{corpus.FormatNDJSON, corpus.FormatColumnar} {
		path := filepath.Join(dir, "c."+string(f))
		sw, err := corpus.CreateShard(path, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			if err := sw.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := corpus.Open(path)
		if err != nil {
			t.Fatalf("Open(%s): %v", f, err)
		}
		got, err := corpus.ReadAll(r)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil || len(got) != len(pages) {
			t.Fatalf("Open(%s): %d pages, %v", f, len(got), err)
		}
	}
}
