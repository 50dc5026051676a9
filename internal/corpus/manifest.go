package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"

	"respectorigin/internal/har"
)

// ManifestSchema identifies the manifest file layout.
const ManifestSchema = "respectorigin-corpus/1"

// Manifest describes a sharded corpus: which rank ranges live in which
// files, under which encoding, generated from which seed. Manifests
// written by independent crawl processes over disjoint shard ranges
// merge losslessly (mergeManifests), which is what lets a multi-process crawl
// feed a single report run without intermediate files.
type Manifest struct {
	Schema  string      `json:"schema"`
	Format  Format      `json:"format"`
	Version int         `json:"version"` // encoding version (Format.Version at write time)
	Seed    int64       `json:"seed"`
	Sites   int         `json:"sites"` // total rank space of the corpus
	Shards  []ShardInfo `json:"shards"`
}

// ShardInfo is one shard file's entry in a manifest. File is relative
// to the manifest's directory when not absolute.
type ShardInfo struct {
	ID       int    `json:"id"`
	RankLo   int    `json:"rank_lo"` // first rank, inclusive
	RankHi   int    `json:"rank_hi"` // last rank, exclusive
	Pages    int    `json:"pages"`   // successful page loads in the file
	File     string `json:"file"`
	Checksum string `json:"checksum"` // fnv1a64 of the file bytes
}

// ShardRange returns the contiguous rank range [lo, hi) shard i of
// shards covers over a sites-rank corpus. Ranges partition [1,
// sites+1) exactly, so shard outputs concatenated in id order
// reproduce a single-process crawl byte for byte.
func ShardRange(sites, shards, i int) (lo, hi int) {
	return 1 + i*sites/shards, 1 + (i+1)*sites/shards
}

// validate checks manifest invariants: supported schema and encoding
// version, well-formed shard entries, unique ids, and non-overlapping
// rank ranges inside the corpus's rank space. Gaps are legal (a partial
// corpus analyzes fine); overlaps would double-count pages and are
// rejected.
func (m *Manifest) validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("corpus: manifest schema %q not supported (want %q)", m.Schema, ManifestSchema)
	}
	if _, err := ParseFormat(string(m.Format)); err != nil {
		return err
	}
	if m.Version != m.Format.Version() {
		return fmt.Errorf("corpus: manifest records %s format version %d; this build reads version %d",
			m.Format, m.Version, m.Format.Version())
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("corpus: manifest has no shards")
	}
	byLo := append([]ShardInfo(nil), m.Shards...)
	sort.Slice(byLo, func(i, j int) bool { return byLo[i].RankLo < byLo[j].RankLo })
	seen := map[int]bool{}
	for i, s := range byLo {
		if s.RankLo < 1 || s.RankHi < s.RankLo || s.RankHi-1 > m.Sites {
			return fmt.Errorf("corpus: shard %d has invalid rank range [%d, %d) of %d sites", s.ID, s.RankLo, s.RankHi, m.Sites)
		}
		if s.Pages < 0 {
			return fmt.Errorf("corpus: shard %d records %d pages", s.ID, s.Pages)
		}
		if s.File == "" {
			return fmt.Errorf("corpus: shard %d has no file", s.ID)
		}
		if seen[s.ID] {
			return fmt.Errorf("corpus: duplicate shard id %d", s.ID)
		}
		seen[s.ID] = true
		if i > 0 && s.RankLo < byLo[i-1].RankHi {
			return fmt.Errorf("corpus: shard %d ranks [%d, %d) overlap shard %d ranks [%d, %d)",
				s.ID, s.RankLo, s.RankHi, byLo[i-1].ID, byLo[i-1].RankLo, byLo[i-1].RankHi)
		}
	}
	return nil
}

// mergeManifests combines manifests from independent shard crawls of the same
// corpus into one, ordered by rank. The runs must agree on seed, total
// sites, format and version — a mismatch means the shards came from
// different corpora and merging them would be silent corruption.
func mergeManifests(ms ...Manifest) (Manifest, error) {
	if len(ms) == 0 {
		return Manifest{}, fmt.Errorf("corpus: no manifests to merge")
	}
	out := ms[0]
	out.Shards = append([]ShardInfo(nil), ms[0].Shards...)
	for _, m := range ms[1:] {
		switch {
		case m.Seed != out.Seed:
			return Manifest{}, fmt.Errorf("corpus: cannot merge manifests with seeds %d and %d", out.Seed, m.Seed)
		case m.Sites != out.Sites:
			return Manifest{}, fmt.Errorf("corpus: cannot merge manifests with sites %d and %d", out.Sites, m.Sites)
		case m.Format != out.Format || m.Version != out.Version:
			return Manifest{}, fmt.Errorf("corpus: cannot merge %s/v%d and %s/v%d manifests",
				out.Format, out.Version, m.Format, m.Version)
		}
		out.Shards = append(out.Shards, m.Shards...)
	}
	sort.Slice(out.Shards, func(i, j int) bool { return out.Shards[i].RankLo < out.Shards[j].RankLo })
	if err := out.validate(); err != nil {
		return Manifest{}, err
	}
	return out, nil
}

// WriteManifest writes a manifest as indented JSON.
func WriteManifest(path string, m Manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// parseManifest decodes and validates the bytes of a manifest file.
func parseManifest(raw []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("corpus: parsing manifest: %w", err)
	}
	return m, m.validate()
}

// readManifest reads and validates a manifest, resolving relative
// shard file paths against the manifest's directory.
func readManifest(path string) (Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	m, err := parseManifest(raw)
	if err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	dir := filepath.Dir(path)
	for i := range m.Shards {
		if !filepath.IsAbs(m.Shards[i].File) {
			m.Shards[i].File = filepath.Join(dir, m.Shards[i].File)
		}
	}
	return m, nil
}

// checksumString formats a shard checksum.
func checksumString(sum uint64) string { return fmt.Sprintf("fnv1a64:%016x", sum) }

// OpenManifest reads, merges and validates the given manifests, then
// returns a Reader streaming every shard's pages in rank order. Each
// shard file is hashed as it streams and its checksum and page count
// are verified at shard end, so a missing, swapped or truncated shard
// file fails loudly instead of skewing the analysis. A single pass,
// no intermediates.
func OpenManifest(paths ...string) (Reader, error) {
	ms := make([]Manifest, 0, len(paths))
	for _, p := range paths {
		m, err := readManifest(p)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	m, err := mergeManifests(ms...)
	if err != nil {
		return nil, err
	}
	for _, s := range m.Shards {
		if _, err := os.Stat(s.File); err != nil {
			return nil, fmt.Errorf("corpus: shard %d file missing: %w", s.ID, err)
		}
	}
	return &manifestReader{m: m}, nil
}

// manifestReader chains shard files, verifying each as it completes.
type manifestReader struct {
	m   Manifest
	idx int

	cur   Reader
	f     *os.File
	tee   io.Reader // file bytes, hashed as read
	h     hash.Hash64
	pages int
	err   error
}

func (mr *manifestReader) Next() (*har.Page, error) {
	if mr.err != nil {
		return nil, mr.err
	}
	for {
		if mr.cur == nil {
			if mr.idx >= len(mr.m.Shards) {
				return nil, io.EOF
			}
			if err := mr.openShard(mr.m.Shards[mr.idx]); err != nil {
				mr.err = err
				return nil, err
			}
		}
		p, err := mr.cur.Next()
		if err == nil {
			mr.pages++
			return p, nil
		}
		if err != io.EOF {
			mr.err = fmt.Errorf("corpus: shard %d (%s): %w", mr.m.Shards[mr.idx].ID, mr.m.Shards[mr.idx].File, err)
			mr.closeShard()
			return nil, mr.err
		}
		if err := mr.finishShard(); err != nil {
			mr.err = err
			return nil, err
		}
	}
}

func (mr *manifestReader) openShard(s ShardInfo) error {
	f, err := os.Open(s.File)
	if err != nil {
		return fmt.Errorf("corpus: opening shard %d: %w", s.ID, err)
	}
	mr.f = f
	mr.h = fnv.New64a()
	mr.tee = io.TeeReader(f, mr.h)
	mr.cur = NewReader(bufio.NewReaderSize(mr.tee, 1<<16), mr.m.Format)
	mr.pages = 0
	return nil
}

// finishShard verifies the completed shard against its manifest entry:
// the streamed hash must match the recorded checksum and the page
// count must match. The drain pulls any bytes the decoder's buffering
// skipped, so the hash always covers the whole file.
func (mr *manifestReader) finishShard() error {
	s := mr.m.Shards[mr.idx]
	if _, err := io.Copy(io.Discard, mr.tee); err != nil {
		mr.closeShard()
		return fmt.Errorf("corpus: draining shard %d: %w", s.ID, err)
	}
	if got := checksumString(mr.h.Sum64()); got != s.Checksum {
		mr.closeShard()
		return fmt.Errorf("corpus: shard %d (%s) checksum %s does not match manifest %s (file modified or truncated?)",
			s.ID, s.File, got, s.Checksum)
	}
	if mr.pages != s.Pages {
		mr.closeShard()
		return fmt.Errorf("corpus: shard %d carried %d pages, manifest records %d", s.ID, mr.pages, s.Pages)
	}
	if err := mr.closeShard(); err != nil {
		return err
	}
	mr.idx++
	return nil
}

func (mr *manifestReader) closeShard() error {
	var err error
	if mr.cur != nil {
		err = mr.cur.Close()
	}
	if mr.f != nil {
		if cerr := mr.f.Close(); err == nil {
			err = cerr
		}
	}
	mr.cur, mr.f, mr.tee, mr.h = nil, nil, nil, nil
	return err
}

func (mr *manifestReader) Close() error { return mr.closeShard() }

// ShardWriter writes one shard file: a format Writer over a buffered,
// hashed file, counting pages, so a crawl process can record the
// shard's manifest entry after Close. Close flushes and closes the
// file and reports any write error that was previously hidden behind
// a deferred close (the full-disk truncation path).
type ShardWriter struct {
	path   string
	f      *os.File
	bw     *bufio.Writer
	h      hash.Hash64
	w      Writer
	pages  int
	closed bool
}

// CreateShard creates path and returns a ShardWriter encoding pages
// into it in the given format.
func CreateShard(path string, format Format) (*ShardWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	bw := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	return &ShardWriter{path: path, f: f, bw: bw, h: h, w: NewWriter(bw, format)}, nil
}

// Write appends one page to the shard.
func (s *ShardWriter) Write(p *har.Page) error {
	if err := s.w.Write(p); err != nil {
		return err
	}
	s.pages++
	return nil
}

// Close finalizes the encoding, flushes buffers and closes the file.
// Every error on that path is returned: an unflushed tail silently
// dropped here is a truncated corpus.
func (s *ShardWriter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.w.Close()
	if ferr := s.bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Info returns the shard's manifest entry. Call it after Close; the
// checksum covers exactly the bytes flushed to disk. The recorded file
// path is the base name, relative to the manifest that will sit next
// to it.
func (s *ShardWriter) Info(id, rankLo, rankHi int) ShardInfo {
	return ShardInfo{
		ID:       id,
		RankLo:   rankLo,
		RankHi:   rankHi,
		Pages:    s.pages,
		File:     filepath.Base(s.path),
		Checksum: checksumString(s.h.Sum64()),
	}
}
