package report

import (
	"fmt"
	"io"
	"sync"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
	"respectorigin/internal/parallel"
	"respectorigin/internal/webgen"
)

// Corpus is the report's view of a corpus: one accumulator per part of
// the report, each filled by the one fold definition below. Whether the
// pages stay in memory is a parameter of how the fold is driven, not of
// what it computes.
type Corpus struct {
	// DS is the dataset of a retained corpus (NewCorpusWorkers,
	// NewCorpusFromReader). It is nil for a corpus folded from a
	// stream (NewCorpusStream), which keeps no pages.
	DS *webgen.Dataset

	workers  int
	pages    int
	failures int
	org      func(asn uint32) string

	mu    sync.Mutex
	parts map[partKey]accumulator
}

// NewCorpusWorkers builds a Corpus over a dataset it keeps. It folds
// nothing yet: each accumulator is filled by one parallel pass over the
// pages the first time something renders from it, on workers
// goroutines (≤ 0 selects GOMAXPROCS). Results are identical for every
// worker count.
func NewCorpusWorkers(ds *webgen.Dataset, workers int) *Corpus {
	org := webgen.OrgOf
	if ds.ASDB != nil {
		org = ds.ASDB.Org
	}
	return &Corpus{
		DS:       ds,
		workers:  parallel.Normalize(workers),
		pages:    len(ds.Pages),
		failures: ds.Failures,
		org:      org,
		parts:    map[partKey]accumulator{},
	}
}

// NewCorpusFromReader drains a corpus reader — a single file opened
// with corpus.Open, or shard files chained by corpus.OpenManifest —
// into a retained Corpus. Pages carry everything the report reads, so
// a merged multi-shard corpus produces tables byte-identical to a
// single-process run. The reader is drained but not closed; failures
// is the crawl's failed-attempt count (0 when unknown).
func NewCorpusFromReader(r corpus.Reader, failures, workers int) (*Corpus, error) {
	pages, err := corpus.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return NewCorpusWorkers(&webgen.Dataset{Pages: pages, Failures: failures}, workers), nil
}

// NewCorpusStream folds a corpus reader block by block into every
// accumulator the report renders from, Figure 9 for the deployment CDN
// cdnASN, and keeps no page beyond the two Figure 2 and the §6.1
// workload show. It renders what a retained Corpus over the same pages
// renders, byte for byte, in memory that grows with the per-page
// scalars and the distinct names counted, not with the pages. The
// reader is drained but not closed; AS names are webgen.OrgOf's.
func NewCorpusStream(r corpus.Reader, failures, workers int, cdnASN uint32) (*Corpus, error) {
	keys := streamedParts(cdnASN)
	f, n, err := foldReader(r, workers, streamBlock, func() fold { return newFold(keys) })
	if err != nil {
		return nil, err
	}
	return foldedCorpus(keys, f, n, failures), nil
}

// foldedCorpus is the Corpus of a fold over n pages that kept none.
func foldedCorpus(keys []partKey, f fold, n, failures int) *Corpus {
	c := &Corpus{
		pages:    n,
		failures: failures,
		org:      webgen.OrgOf,
		parts:    make(map[partKey]accumulator, len(keys)),
	}
	for i, k := range keys {
		c.parts[k] = f[i]
	}
	return c
}

// Pages returns the number of pages the corpus holds or has folded.
func (c *Corpus) Pages() int { return c.pages }

// ReplayStream is Corpus.Replay over a stream: it replays every page of
// r revisits times under each protocol of protos in one block-by-block
// pass and returns the summed ledgers with the number of pages read.
// The reader is drained but not closed.
func ReplayStream(r corpus.Reader, workers, revisits int, opts cache.Options, protos ...core.Protocol) ([]ProtoCosts, int, error) {
	f, n, err := foldReader(r, workers, streamBlock, func() fold { return fold{newWarmAcc(revisits, opts, protos)} })
	if err != nil {
		return nil, n, err
	}
	return f[0].(*warmAcc).costs(), n, nil
}

// part names one accumulator of the report.
type part uint8

const (
	partPages     part = iota // Table 1, Figure 1
	partModel                 // Table 8, Figures 3–5, headline
	partProviders             // Table 9
	partFig9                  // Figure 9 (top), for one CDN
	partPolicy                // policy cross-validation
	partPrivacy               // §6.2 exposure
	partSample                // Figure 2's page, the §6.1 workload's page
	partTable2
	partTable3
	partTable4
	partTable5
	partTable6
	partTable7
	numParts
)

// partKey identifies a folded accumulator: its part and, for Figure 9,
// the CDN it was folded for.
type partKey struct {
	part   part
	cdnASN uint32
}

// streamedParts is every accumulator a streamed corpus folds.
func streamedParts(cdnASN uint32) []partKey {
	keys := make([]partKey, numParts)
	for p := range numParts {
		keys[p] = partKey{part: p}
	}
	keys[partFig9].cdnASN = cdnASN
	return keys
}

// newPart returns an empty accumulator for k.
func newPart(k partKey) accumulator {
	switch k.part {
	case partPages:
		return new(pageStats)
	case partModel:
		return new(modelAcc)
	case partProviders:
		return &providerAcc{core.NewProviderUsage()}
	case partFig9:
		return &fig9Acc{cdnASN: k.cdnASN}
	case partPolicy:
		return new(policyAcc)
	case partPrivacy:
		return newPrivacyAcc()
	case partSample:
		return new(sampleAcc)
	case partTable2:
		return asRequests{}
	case partTable3:
		return &protocolAcc{cnt: measure.NewCounter()}
	case partTable4:
		return newEntryCount(issuerOf)
	case partTable5:
		return newEntryCount(mimeOf)
	case partTable6:
		return asTypes{}
	case partTable7:
		return newEntryCount(subresourceHostOf)
	}
	panic(fmt.Sprintf("report: no part %d", k.part))
}

// An accumulator is one part of the report as a fold: add takes the
// pages in order, and merge appends the accumulator of the pages that
// follow — so a corpus folds the same in one pass, in parallel chunks,
// or block by block from a stream. Only renders read an accumulator,
// and they leave it as it was. Keys that outlive their page are copies
// (measure.Counter.Add clones them): an Entry.Host is cut from its
// page's text and would keep the whole text alive.
type accumulator interface {
	add(s *scratch, p *har.Page)
	merge(next accumulator)
}

// fold is a set of accumulators fed together.
type fold []accumulator

func newFold(keys []partKey) fold {
	f := make(fold, len(keys))
	for i, k := range keys {
		f[i] = newPart(k)
	}
	return f
}

func (f fold) add(s *scratch, p *har.Page) {
	for _, a := range f {
		a.add(s, p)
	}
}

func (f fold) merge(next fold) fold {
	for i, a := range f {
		a.merge(next[i])
	}
	return f
}

// foldPages folds pages on workers goroutines, one scratch each, into
// the accumulators newFold returns.
func foldPages(pages []*har.Page, workers int, newFold func() fold) fold {
	return parallel.FoldWith(len(pages), workers, newScratch, newFold,
		func(s *scratch, f fold, i int) fold {
			f.add(s, pages[i])
			return f
		},
		fold.merge)
}

// streamBlock is how many decoded pages a streamed fold holds at once:
// ≈ 40 MiB of pages at ≈ 40 KiB each, enough chunks per block to keep
// every worker busy.
const streamBlock = 1024

// foldReader drains r through foldPages in blocks of blockPages pages
// and merges the blocks in order; a block's pages are dropped once
// folded. It returns the fold and the number of pages read.
func foldReader(r corpus.Reader, workers, blockPages int, newFold func() fold) (fold, int, error) {
	total := newFold()
	n := 0
	block := make([]*har.Page, 0, blockPages)
	for {
		p, err := r.Next()
		if err == nil {
			if block = append(block, p); len(block) < cap(block) {
				continue
			}
		} else if err != io.EOF {
			return nil, n, err
		}
		if len(block) > 0 {
			total.merge(foldPages(block, workers, newFold))
			n += len(block)
			clear(block)
			block = block[:0]
		}
		if err == io.EOF {
			return total, n, nil
		}
	}
}

// part returns the accumulator for k, folding it over the retained
// pages the first time it is asked for.
func (c *Corpus) part(k partKey) accumulator {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.parts[k]; ok {
		return a
	}
	if c.DS == nil {
		panic(fmt.Sprintf("report: a streamed corpus has no part %d for AS%d; it folds Figure 9 only for the CDN it was built with", k.part, k.cdnASN))
	}
	a := foldPages(c.DS.Pages, c.workers, func() fold { return fold{newPart(k)} })[0]
	c.parts[k] = a
	return a
}

// get is c.part for the parts that take no CDN.
func get[A accumulator](c *Corpus, p part) A { return c.part(partKey{part: p}).(A) }

// scratch is one worker's working storage for a fold: the §4 model of
// the page being added, shared by every part that needs it, and what
// the policy and warm replays reuse from page to page.
type scratch struct {
	model   core.Timeline
	loaded  *har.Page // the page model holds
	plan    core.CertPlan
	planned bool // plan is loaded's
	ases    []uint32
	policy  *policyReplayer
	replay  *core.Replayer
}

func newScratch() *scratch { return new(scratch) }

// timeline returns the §4 model of p, loaded once however many parts
// ask for it.
func (s *scratch) timeline(p *har.Page) *core.Timeline {
	if s.loaded != p {
		s.model.Load(p)
		s.loaded, s.planned = p, false
	}
	return &s.model
}

// certPlan returns p's §4.3 plan, computed once per page into storage
// the next page reuses.
func (s *scratch) certPlan(p *har.Page) *core.CertPlan {
	t := s.timeline(p)
	if !s.planned {
		t.CertPlanInto(&s.plan)
		s.planned = true
	}
	return &s.plan
}
