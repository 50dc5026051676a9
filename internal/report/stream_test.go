package report

import (
	"bytes"
	"reflect"
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/corpus"
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
	wantSweep := base.ProtoSweep(2, cache.Options{})

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
		if got := c.ProtoSweep(2, cache.Options{}); !reflect.DeepEqual(got, wantSweep) {
			t.Fatalf("%s: per-protocol replay ledgers differ from in-memory corpus:\n got %+v\nwant %+v", f, got, wantSweep)
		}
	}
}
