package corpus

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// FuzzManifest feeds the manifest parser — the JSON decode and Validate
// half of readManifest — arbitrary bytes: a valid two-shard manifest,
// its truncations, and whatever the fuzzer derives. It must never panic
// and must not allocate beyond a multiple of its input. A manifest it
// accepts is safe to open: its shards have unique ids and files, and
// rank ranges that are ordered, inside [1, sites] and disjoint; it
// survives WriteManifest → readManifest unchanged; merging it with
// itself is refused; and OpenManifest does not panic on it.
func FuzzManifest(f *testing.F) {
	valid, err := json.Marshal(Manifest{
		Schema: ManifestSchema, Format: FormatColumnar, Version: columnarVersion, Seed: 1, Sites: 100,
		Shards: []ShardInfo{
			{ID: 1, RankLo: 51, RankHi: 101, Pages: 30, File: "s1.col", Checksum: "fnv1a64:0000000000000001"},
			{ID: 0, RankLo: 1, RankHi: 51, Pages: 31, File: "s0.col", Checksum: "fnv1a64:0000000000000000"},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, 1, 20, len(valid) / 2, len(valid) - 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	head := `{"schema":"respectorigin-corpus/1","format":"ndjson","version":1,"seed":1,"sites":10,"shards":[`
	f.Add([]byte(head + `{"id":0,"rank_lo":1,"rank_hi":6,"file":"a"},{"id":1,"rank_lo":5,"rank_hi":11,"file":"b"}]}`)) // overlap
	f.Add([]byte(head + `{"id":0,"rank_lo":1,"rank_hi":6,"file":"a"},{"id":0,"rank_lo":6,"rank_hi":11,"file":"b"}]}`)) // duplicate id
	f.Add([]byte(head + `{"id":0,"rank_lo":-5,"rank_hi":-1,"file":"a"}]}`))
	f.Add([]byte(head + `{},{},{},{},{},{},{},{}]}`))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := parseManifest(raw)
		runtime.ReadMemStats(&after)
		// Worst honest ratio: a three-byte "{}," is an 80-byte ShardInfo in
		// a slice grown by doubling, copied and sorted once by Validate.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(256*len(raw)+64<<10); grew > bound {
			t.Fatalf("parsing %d bytes allocated %d, bound %d", len(raw), grew, bound)
		}
		if err != nil {
			return
		}
		byLo := append([]ShardInfo(nil), m.Shards...)
		sort.SliceStable(byLo, func(i, j int) bool { return byLo[i].RankLo < byLo[j].RankLo })
		ids := map[int]bool{}
		for i, s := range byLo {
			if s.RankLo < 1 || s.RankHi < s.RankLo || s.RankHi-1 > m.Sites || s.Pages < 0 || s.File == "" || ids[s.ID] {
				t.Fatalf("accepted shard %+v of %d sites", s, m.Sites)
			}
			ids[s.ID] = true
			if i > 0 && s.RankLo < byLo[i-1].RankHi {
				t.Fatalf("accepted overlapping shards %+v and %+v", byLo[i-1], s)
			}
		}
		if _, err := mergeManifests(m, m); err == nil {
			t.Fatalf("a manifest merged with itself:\n%+v", m)
		}

		path := filepath.Join(dir, "m.manifest.json")
		if err := WriteManifest(path, m); err != nil {
			t.Fatal(err)
		}
		back, err := readManifest(path)
		if err != nil {
			t.Fatalf("written manifest does not read back: %v", err)
		}
		for i := range back.Shards {
			if !filepath.IsAbs(m.Shards[i].File) {
				back.Shards[i].File = m.Shards[i].File // readManifest resolved it against dir
			}
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("manifest changed through a file:\n got %+v\nwant %+v", back, m)
		}
		// Opening goes on to merge and to look for the shard files; it reads
		// none of them before the first Next.
		if r, err := OpenManifest(path); err == nil {
			r.Close()
		}
	})
}

func TestManifestRejectsOverlappingShards(t *testing.T) {
	m := Manifest{
		Schema: ManifestSchema, Format: FormatColumnar,
		Version: columnarVersion, Seed: 1, Sites: 100,
		Shards: []ShardInfo{
			{ID: 0, RankLo: 1, RankHi: 60, Pages: 10, File: "a", Checksum: "x"},
			{ID: 1, RankLo: 50, RankHi: 101, Pages: 10, File: "b", Checksum: "y"},
		},
	}
	if err := m.validate(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping ranges validated: err = %v", err)
	}
	// Merging two single-shard manifests with the same range must fail too.
	a := m
	a.Shards = m.Shards[:1]
	b := m
	b.Shards = []ShardInfo{{ID: 1, RankLo: 30, RankHi: 40, Pages: 1, File: "b", Checksum: "y"}}
	if _, err := Merge(a, b); err == nil {
		t.Fatal("Merge accepted overlapping shard ranges")
	}
}
