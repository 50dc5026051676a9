package report

import (
	"bytes"
	"runtime"
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/webgen"
)

// crawlReport renders what the benchmark's crawl-report workload
// renders from a corpus.
func crawlReport(c *Corpus) {
	c.Table1(5)
	c.Table2(10)
	c.Table3()
	c.Figure1()
	c.Figure3()
	c.Figure4()
	c.Figure5()
	c.Headline()
	c.Figure9Model(13335)
	c.PolicyComparison()
}

// The crawl-report renders over a retained corpus — every fold they
// need and the text — allocate ≤ 2.5 objects per page, measured 1.7 at
// the benchmark's corpus (2 000 sites, 1 271 pages) on one worker. A
// per-page §4.3 plan costs ≈ 1.9 more, and naming every distinct AS in
// Table 2 ≈ 15: before both were cut the same renders took 18.8.
func TestReportAllocBudget(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 2000
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() { crawlReport(NewCorpusWorkers(ds, 1)) })
	if perPage := allocs / float64(len(ds.Pages)); perPage > 2.5 {
		t.Errorf("crawl-report renders allocate %.2f per page (%.0f over %d pages), want ≤ 2.5", perPage, allocs, len(ds.Pages))
	} else {
		t.Logf("%.2f allocations per page", perPage)
	}
}

// The proto-replay path as a whole: a second Replay of every page four
// times under each protocol, over 1 000 sites at 2 workers, allocates
// ≤ 0.05 objects a page-visit, measured 0.038. Each call builds one
// replayer, and so one cold warm-path cache, a worker; it read 0.077
// while that cache allocated an entry and an answer for every name.
func TestReplayAllocBudget(t *testing.T) {
	c := NewCorpusWorkers(testCorpus(t, 1000).DS, 2)
	const revisits = 4
	c.Replay(revisits, cache.Options{}, core.Protocols...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Replay(revisits, cache.Options{}, core.Protocols...)
	runtime.ReadMemStats(&after)
	visits := float64(len(c.DS.Pages) * revisits * len(core.Protocols))
	perVisit := float64(after.Mallocs-before.Mallocs) / visits
	if perVisit > 0.05 {
		t.Errorf("a second Replay allocates %.4f objects a page-visit (%d over %.0f), want ≤ 0.05", perVisit, after.Mallocs-before.Mallocs, visits)
	} else {
		t.Logf("%.4f objects a page-visit", perVisit)
	}
}

// columnarCorpus generates sites and returns only their columnar
// encoding, so no page outlives the call.
func columnarCorpus(t *testing.T, sites int) []byte {
	t.Helper()
	cfg := webgen.DefaultConfig()
	cfg.Sites = sites
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return encodeDS(t, ds, corpus.FormatColumnar)
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// A streamed fold keeps per-page scalars and the distinct names it
// counts, not pages: what it holds once folded stays under 4.5 KiB a
// page at both sizes — measured 3.7 and 3.0 KiB, the smaller corpus
// paying more for what does not grow with it — while a page is ≈ 40
// KiB. One counter key cut from a page's text instead of copied keeps
// that page's text alive with it, which this bound catches.
func TestStreamedFoldBytesPerPage(t *testing.T) {
	for _, sites := range []int{1000, 4000} {
		raw := columnarCorpus(t, sites)
		before := liveHeap()
		c, err := NewCorpusStream(corpus.NewReader(bytes.NewReader(raw), corpus.FormatColumnar), 0, 2, 13335)
		if err != nil {
			t.Fatal(err)
		}
		perPage := float64(liveHeap()-before) / float64(c.Pages())
		runtime.KeepAlive(c)
		runtime.KeepAlive(raw)
		if perPage > 4608 {
			t.Errorf("%d sites: a streamed fold of %d pages holds %.0f B a page, want ≤ 4608", sites, c.Pages(), perPage)
		} else {
			t.Logf("%d sites, %d pages: %.0f B a page", sites, c.Pages(), perPage)
		}
	}
}
