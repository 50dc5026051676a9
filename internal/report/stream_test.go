package report

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/netsim"
	"respectorigin/internal/webgen"
)

// encodeDS writes a dataset's pages in the given corpus format.
func encodeDS(t *testing.T, ds *webgen.Dataset, f corpus.Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := corpus.NewWriter(&buf, f)
	for _, p := range ds.Pages {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A corpus read back through either encoding must analyze and replay
// identically to the in-memory dataset it came from — the property that
// makes cmd/report over crawl output equivalent to generating inline.
func TestNewCorpusFromReaderMatchesInMemory(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 150
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := NewCorpusWorkers(ds, 2)
	_, wantT1 := base.Table1(5)
	_, wantT2 := base.Table2(10)
	_, wantHL := base.Headline()
	wantSweep := base.Replay(2, cache.Options{}, core.Protocols...)

	for _, f := range []corpus.Format{corpus.FormatNDJSON, corpus.FormatColumnar} {
		raw := encodeDS(t, ds, f)
		c, err := NewCorpusFromReader(corpus.NewReader(bytes.NewReader(raw), f), ds.Failures, 2)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, got := c.Table1(5); got != wantT1 {
			t.Fatalf("%s: Table1 differs from in-memory corpus", f)
		}
		if _, got := c.Table2(10); got != wantT2 {
			t.Fatalf("%s: Table2 differs from in-memory corpus", f)
		}
		if _, got := c.Headline(); got != wantHL {
			t.Fatalf("%s: Headline differs from in-memory corpus", f)
		}
		if got := c.Replay(2, cache.Options{}, core.Protocols...); !reflect.DeepEqual(got, wantSweep) {
			t.Fatalf("%s: per-protocol replay ledgers differ from in-memory corpus:\n got %+v\nwant %+v", f, got, wantSweep)
		}
	}
}

// defaultReport is every text cmd/report prints by default, in its
// order and with its arguments.
func defaultReport(c *Corpus) string {
	_, t1 := c.Table1(5)
	_, t2 := c.Table2(10)
	_, _, t3 := c.Table3()
	_, t4 := c.Table4(10)
	_, t5 := c.Table5(12)
	_, t6 := c.Table6(3, 4)
	_, t7 := c.Table7(10)
	_, t8 := c.Table8(10)
	_, t9 := c.Table9(3, 5)
	_, _, f1 := c.Figure1()
	_, f3 := c.Figure3()
	_, _, f4 := c.Figure4()
	_, f5 := c.Figure5()
	_, f9 := c.Figure9Model(13335)
	_, hl := c.Headline()
	_, priv := c.PrivacyReport()
	_, sched := c.SchedulingReport()
	_, pol := c.PolicyComparison()
	return strings.Join([]string{t1, t2, t3, t4, t5, t6, t7, t8, t9, f1, c.Figure2(72), f3, f4, f5, f9, hl, priv, sched, pol}, "\n")
}

// warmOpts are cmd/report's -cache defaults.
var warmOpts = cache.Options{TicketLifetimeSeconds: cache.DefaultTicketLifetimeSeconds}

// warmReport is the -proto-sweep table and the -cache table of a
// replay over every protocol.
func warmReport(sweep []ProtoCosts) string {
	return ProtoSweepTable(sweep, netsim.DefaultParams(), "corpus") + SavingsTable(sweep[1].Visits, "h2")
}

// firstDiff names the first line where two renderings differ.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}

// The streamed fold renders what one sequential pass over retained
// pages renders: every text of the default report and the -cache and
// -proto-sweep tables, over pages decoded from either encoding, at any
// worker count, in the blocks NewCorpusStream reads and in blocks of 7
// pages. Those put
// dozens of block merges behind every accumulator, so a merge that
// loses page order shows in Figure 2, Figure 5 or the §6.1 workload.
func TestStreamedMatchesRetained(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 300
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewCorpusWorkers(ds, 1)
	want := defaultReport(ref)
	wantWarm := warmReport(ref.Replay(2, warmOpts, core.Protocols...))

	// A retained corpus keeps Figure 9 per CDN: a second CDN is folded
	// for itself, not served the first one's.
	_, cf := ref.Figure9Model(13335)
	_, amazon := ref.Figure9Model(16509)
	if _, fresh := NewCorpusWorkers(ds, 4).Figure9Model(16509); amazon != fresh || amazon == cf {
		t.Errorf("Figure 9 for AS16509 after AS13335:\n%s\nfresh corpus:\n%s\nAS13335:\n%s", amazon, fresh, cf)
	}

	for _, f := range []corpus.Format{corpus.FormatNDJSON, corpus.FormatColumnar} {
		// Each encoding is decoded once; the folds read its pages back.
		pages, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(encodeDS(t, ds, f)), f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		read := func() corpus.Reader { return &pageReader{pages} }
		for _, workers := range []int{1, 2, 4, 16} {
			name := fmt.Sprintf("%s/workers=%d", f, workers)
			c, err := NewCorpusStream(read(), ds.Failures, workers, 13335)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if c.Pages() != len(ds.Pages) || c.DS != nil {
				t.Fatalf("%s: folded %d pages (DS kept: %v), want %d and none kept", name, c.Pages(), c.DS != nil, len(ds.Pages))
			}
			if got := defaultReport(c); got != want {
				t.Errorf("%s: report differs from the retained pass at %s", name, firstDiff(got, want))
			}
			sweep, n, err := ReplayStream(read(), workers, 2, warmOpts, core.Protocols...)
			if err != nil || n != len(ds.Pages) {
				t.Fatalf("%s: replayed %d pages: %v", name, n, err)
			}
			if got := warmReport(sweep); got != wantWarm {
				t.Errorf("%s: replay tables differ from the retained pass at %s", name, firstDiff(got, wantWarm))
			}

			keys := streamedParts(13335)
			folded, n, err := foldReader(read(), workers, 7, func() fold { return newFold(keys) })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := defaultReport(foldedCorpus(keys, folded, n, ds.Failures)); got != want {
				t.Errorf("%s, 7-page blocks: report differs from the retained pass at %s", name, firstDiff(got, want))
			}
			warm, _, err := foldReader(read(), workers, 7, func() fold { return fold{newWarmAcc(2, warmOpts, core.Protocols)} })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := warmReport(warm[0].(*warmAcc).costs()); got != wantWarm {
				t.Errorf("%s, 7-page blocks: replay tables differ from the retained pass at %s", name, firstDiff(got, wantWarm))
			}
		}
	}
}

// pageReader reads decoded pages back as a corpus.
type pageReader struct{ pages []*har.Page }

func (r *pageReader) Next() (*har.Page, error) {
	if len(r.pages) == 0 {
		return nil, io.EOF
	}
	p := r.pages[0]
	r.pages = r.pages[1:]
	return p, nil
}

func (r *pageReader) Close() error { return nil }

// fuzzCorpus is FuzzFoldSplit's corpus and the text one sequential
// pass over it renders.
var fuzzCorpus struct {
	ds   *webgen.Dataset
	want string
}

// FuzzFoldSplit cuts the corpus into blocks of random sizes and folds
// each on a random number of workers, as a stream does: merging the
// blocks in order must render what one pass renders.
func FuzzFoldSplit(f *testing.F) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 90
	ds, err := webgen.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	fuzzCorpus.ds = ds
	fuzzCorpus.want = defaultReport(NewCorpusWorkers(ds, 1))
	f.Add(uint8(1), []byte{0})
	f.Add(uint8(4), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint8(16), []byte{255, 0, 17})
	f.Fuzz(func(t *testing.T, workers uint8, cuts []byte) {
		ds := fuzzCorpus.ds
		pages := ds.Pages
		keys := streamedParts(13335)
		newF := func() fold { return newFold(keys) }
		total := newF()
		for i := 0; len(pages) > 0; i++ {
			size := len(pages)
			if i < len(cuts) {
				size = min(size, 1+int(cuts[i])%40)
			}
			total.merge(foldPages(pages[:size], 1+int(workers)%16, newF))
			pages = pages[size:]
		}
		c := foldedCorpus(keys, total, len(ds.Pages), ds.Failures)
		if got := defaultReport(c); got != fuzzCorpus.want {
			t.Fatalf("workers %d, cuts %v: report differs from one pass at %s", workers, cuts, firstDiff(got, fuzzCorpus.want))
		}
	})
}
