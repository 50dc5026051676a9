// Package report regenerates every table and figure of the paper's
// evaluation from a corpus (internal/webgen) and a deployment
// simulation (internal/cdn). Each Table*/Figure* function returns a
// structured result plus a formatted text rendering, so the same code
// backs the cmd/report binary, the benchmark harness, and EXPERIMENTS.md.
//
// Every per-page pass runs as a parallel map-reduce
// (internal/parallel): pages fold into shard-local accumulators whose
// associative merges recombine in page order, so output text is
// byte-identical to a sequential pass for any worker count.
package report

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
	"respectorigin/internal/parallel"
	"respectorigin/internal/webgen"
)

// Corpus wraps a generated dataset with memoized per-page analyses.
type Corpus struct {
	DS *webgen.Dataset

	workers int
	counts  []core.PageCounts
	plans   []core.CertPlan

	summaryOnce sync.Once
	summary     core.CertPlanSummary
}

// NewCorpusWorkers builds a Corpus whose per-page passes — the memoized
// §4.2 counts and §4.3 cert plans computed here, and every later
// table/figure pass — fan out across workers goroutines (≤ 0 selects
// GOMAXPROCS). Results are identical for every worker count.
func NewCorpusWorkers(ds *webgen.Dataset, workers int) *Corpus {
	c := &Corpus{DS: ds, workers: parallel.Normalize(workers)}
	// One pass models every page: the counts are the map's result, the
	// plans land beside them at the same index.
	c.plans = make([]core.CertPlan, len(ds.Pages))
	c.counts = parallel.MapWith(len(ds.Pages), c.workers, newTimeline, func(t *core.Timeline, i int) core.PageCounts {
		t.Load(ds.Pages[i])
		c.plans[i] = t.CertPlan()
		return t.Counts()
	})
	return c
}

// NewCorpusFromReader drains a corpus reader — a single file opened
// with corpus.Open, or shard files chained by corpus.OpenManifest —
// into an analysis Corpus. Pages carry everything the report reads, so
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

// newTimeline is the per-worker scratch of the passes that run the §4
// model over every page.
func newTimeline() *core.Timeline { return new(core.Timeline) }

// orgOf names an AS: from the corpus's own database when it came with
// one (a HAR import), as the generated universe names it otherwise.
func (c *Corpus) orgOf(asn uint32) string {
	if c.DS.ASDB != nil {
		return c.DS.ASDB.Org(asn)
	}
	return webgen.OrgOf(asn)
}

// mapPages runs a per-page corpus pass as a parallel map-reduce.
func mapPages[A any](c *Corpus, newAcc func() A, fold func(A, *har.Page) A, merge func(A, A) A) A {
	return parallel.MapReduce(c.DS.Pages, c.workers, newAcc, fold, merge)
}

// countPages is mapPages specialized to the commonest shape: one
// measure.Counter fed per page.
func countPages(c *Corpus, fold func(*measure.Counter, *har.Page)) *measure.Counter {
	return mapPages(c, measure.NewCounter,
		func(cnt *measure.Counter, p *har.Page) *measure.Counter {
			fold(cnt, p)
			return cnt
		},
		func(a, b *measure.Counter) *measure.Counter {
			a.Merge(b)
			return a
		})
}

// certSummary memoizes the corpus-level §4.3 summary behind Table 8,
// Figures 4-5 and the headline, computed as a parallel map-reduce over
// the per-page plans.
func (c *Corpus) certSummary() core.CertPlanSummary {
	c.summaryOnce.Do(func() {
		c.summary = parallel.Fold(len(c.plans), c.workers,
			func() core.CertPlanSummary { return core.CertPlanSummary{} },
			func(s core.CertPlanSummary, i int) core.CertPlanSummary {
				s.AddPlan(&c.plans[i])
				return s
			},
			func(a, b core.CertPlanSummary) core.CertPlanSummary {
				a.Merge(b)
				return a
			})
	})
	return c.summary
}

// Table1Row is one popularity bucket of Table 1.
type Table1Row struct {
	Bucket     string
	Success    int
	MedianReqs float64
	MedianPLT  float64
	MedianDNS  float64
	MedianTLS  float64
}

// table1Acc accumulates per-bucket and total samples; shard merges
// concatenate bucket-wise, preserving page order.
type table1Acc struct {
	buckets []table1Samples
	total   table1Samples
}

type table1Samples struct {
	reqs, plt, dns, tls []float64
}

func (s *table1Samples) add(p *har.Page) {
	s.reqs = append(s.reqs, float64(len(p.Entries)))
	s.plt = append(s.plt, p.PLT())
	s.dns = append(s.dns, float64(p.DNSQueries()))
	s.tls = append(s.tls, float64(p.TLSConnections()))
}

func (s *table1Samples) merge(o *table1Samples) {
	s.reqs = append(s.reqs, o.reqs...)
	s.plt = append(s.plt, o.plt...)
	s.dns = append(s.dns, o.dns...)
	s.tls = append(s.tls, o.tls...)
}

// Table1 reproduces Table 1: per-rank-bucket successes and medians.
func (c *Corpus) Table1(buckets int) ([]Table1Row, string) {
	if buckets <= 0 {
		buckets = 5
	}
	maxRank := 0
	for _, p := range c.DS.Pages {
		if p.Rank > maxRank {
			maxRank = p.Rank
		}
	}
	size := (maxRank + buckets - 1) / buckets
	if size == 0 {
		size = 1
	}
	acc := mapPages(c,
		func() *table1Acc { return &table1Acc{buckets: make([]table1Samples, buckets)} },
		func(a *table1Acc, p *har.Page) *table1Acc {
			b := (p.Rank - 1) / size
			if b >= buckets {
				b = buckets - 1
			}
			a.buckets[b].add(p)
			a.total.add(p)
			return a
		},
		func(a, b *table1Acc) *table1Acc {
			for i := range a.buckets {
				a.buckets[i].merge(&b.buckets[i])
			}
			a.total.merge(&b.total)
			return a
		})
	var rows []Table1Row
	var sb strings.Builder
	sb.WriteString("Table 1: successful collection with median page-level attributes\n")
	sb.WriteString("Rank bucket        Success   #Reqs   PLT(ms)   #DNS  #TLS\n")
	for b := 0; b < buckets; b++ {
		a := acc.buckets[b]
		row := Table1Row{
			Bucket:     fmt.Sprintf("%d-%d", b*size+1, (b+1)*size),
			Success:    len(a.reqs),
			MedianReqs: measure.Median(a.reqs),
			MedianPLT:  measure.Median(a.plt),
			MedianDNS:  measure.Median(a.dns),
			MedianTLS:  measure.Median(a.tls),
		}
		rows = append(rows, row)
		fmt.Fprintf(&sb, "%-18s %7d   %5.0f   %7.0f   %4.0f  %4.0f\n",
			row.Bucket, row.Success, row.MedianReqs, row.MedianPLT, row.MedianDNS, row.MedianTLS)
	}
	fmt.Fprintf(&sb, "%-18s %7d   %5.0f   %7.0f   %4.0f  %4.0f   (failures: %d)\n",
		"Total", len(c.DS.Pages), measure.Median(acc.total.reqs), measure.Median(acc.total.plt),
		measure.Median(acc.total.dns), measure.Median(acc.total.tls), c.DS.Failures)
	return rows, sb.String()
}

// Table2 reproduces Table 2: top destination ASes by requests. Pages
// fold by AS number; each distinct AS is named once at the end.
func (c *Corpus) Table2(n int) ([]measure.RankedEntry, string) {
	byASN := mapPages(c,
		func() map[uint32]int64 { return map[uint32]int64{} },
		func(m map[uint32]int64, p *har.Page) map[uint32]int64 {
			for i := range p.Entries {
				m[p.Entries[i].ServerASN]++
			}
			return m
		},
		func(a, b map[uint32]int64) map[uint32]int64 {
			for as, v := range b {
				a[as] += v
			}
			return a
		})
	cnt := measure.NewCounter()
	for as, v := range byASN {
		cnt.Add(fmt.Sprintf("AS%d %s", as, c.orgOf(as)), v)
	}
	top := cnt.Top(n)
	return top, cnt.TableString("Table 2: top destination ASes for resource requests", n)
}

// table3Acc accumulates the protocol counter plus the secure share.
type table3Acc struct {
	cnt           *measure.Counter
	secure, total int64
}

// Table3 reproduces Table 3: request protocol mix and secure share.
func (c *Corpus) Table3() (map[string]int64, float64, string) {
	acc := mapPages(c,
		func() *table3Acc { return &table3Acc{cnt: measure.NewCounter()} },
		func(a *table3Acc, p *har.Page) *table3Acc {
			for i := range p.Entries {
				a.cnt.Add(p.Entries[i].Protocol, 1)
				a.total++
				if p.Entries[i].Secure {
					a.secure++
				}
			}
			return a
		},
		func(a, b *table3Acc) *table3Acc {
			a.cnt.Merge(b.cnt)
			a.secure += b.secure
			a.total += b.total
			return a
		})
	out := map[string]int64{}
	for _, e := range acc.cnt.Top(0) {
		out[e.Key] = e.Count
	}
	secShare := 100 * float64(acc.secure) / float64(acc.total)
	s := acc.cnt.TableString("Table 3: requests by application protocol", 0) +
		fmt.Sprintf("Secure share: %.2f%% (%d of %d)\n", secShare, acc.secure, acc.total)
	return out, secShare, s
}

// Table4 reproduces Table 4: top certificate issuers by validations.
func (c *Corpus) Table4(n int) ([]measure.RankedEntry, string) {
	cnt := countPages(c, func(cnt *measure.Counter, p *har.Page) {
		for i := range p.Entries {
			e := &p.Entries[i]
			if e.NewTLS && e.CertIssuer != "" {
				cnt.Add(e.CertIssuer, 1)
			}
		}
	})
	return cnt.Top(n), cnt.TableString("Table 4: top certificate issuers by validations", n)
}

// Table5 reproduces Table 5: requests by content type.
func (c *Corpus) Table5(n int) ([]measure.RankedEntry, string) {
	cnt := countPages(c, func(cnt *measure.Counter, p *har.Page) {
		for i := range p.Entries {
			cnt.Add(p.Entries[i].MimeType, 1)
		}
	})
	return cnt.Top(n), cnt.TableString("Table 5: requests by content type", n)
}

// Table6Row is one AS section of Table 6.
type Table6Row struct {
	AS    string
	Types []measure.RankedEntry
}

// Table6 reproduces Table 6: top content types per top AS. Pages fold
// by AS number; organizations are looked up once per distinct AS.
func (c *Corpus) Table6(topAS, topTypes int) ([]Table6Row, string) {
	byASN := mapPages(c,
		func() map[uint32]*measure.Counter { return map[uint32]*measure.Counter{} },
		func(m map[uint32]*measure.Counter, p *har.Page) map[uint32]*measure.Counter {
			for i := range p.Entries {
				e := &p.Entries[i]
				tc, ok := m[e.ServerASN]
				if !ok {
					tc = measure.NewCounter()
					m[e.ServerASN] = tc
				}
				tc.Add(e.MimeType, 1)
			}
			return m
		},
		func(a, b map[uint32]*measure.Counter) map[uint32]*measure.Counter {
			for as, tc := range b {
				if mine, ok := a[as]; ok {
					mine.Merge(tc)
				} else {
					a[as] = tc
				}
			}
			return a
		})
	// Several ASes may belong to one organization: fold them by name.
	asCnt := measure.NewCounter()
	typeCnt := map[string]*measure.Counter{}
	for as, tc := range byASN {
		org := c.orgOf(as)
		asCnt.Add(org, tc.Total())
		if mine, ok := typeCnt[org]; ok {
			mine.Merge(tc)
		} else {
			typeCnt[org] = tc
		}
	}
	var rows []Table6Row
	var sb strings.Builder
	sb.WriteString("Table 6: top content types per top AS\n")
	for _, as := range asCnt.Top(topAS) {
		row := Table6Row{AS: as.Key, Types: typeCnt[as.Key].Top(topTypes)}
		rows = append(rows, row)
		fmt.Fprintf(&sb, "%s (%.2f%% of requests)\n", as.Key, as.Share)
		for _, tr := range row.Types {
			fmt.Fprintf(&sb, "    %-32s %10d  %6.2f%%\n", tr.Key, tr.Count, tr.Share)
		}
	}
	return rows, sb.String()
}

// Table7 reproduces Table 7: top subresource hostnames.
func (c *Corpus) Table7(n int) ([]measure.RankedEntry, string) {
	cnt := countPages(c, func(cnt *measure.Counter, p *har.Page) {
		for i := 1; i < len(p.Entries); i++ { // subresources only
			cnt.Add(p.Entries[i].Host, 1)
		}
	})
	return cnt.Top(n), cnt.TableString("Table 7: top subresource hostnames", n)
}

// Table8 reproduces Table 8: ranked SAN-size distribution, measured vs
// ideal after the §4.3 modifications.
func (c *Corpus) Table8(n int) ([]core.SANRankRow, string) {
	rows := core.SANRankTable(c.certSummary(), n)
	var sb strings.Builder
	sb.WriteString("Table 8: SAN-size ranking, measured vs ideal\n")
	sb.WriteString("Rank  Measured(size,count)    Ideal(size,count)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%4d  size=%-4d n=%-10d size=%-4d n=%d\n",
			r.Rank, r.MeasuredSize, r.MeasuredCount, r.IdealSize, r.IdealCount)
	}
	return rows, sb.String()
}

// Table9 reproduces Table 9: top providers and the most frequently
// needed hostnames to include in their customers' certificates.
func (c *Corpus) Table9(topProviders, topHosts int) ([]core.ProviderChange, string) {
	usage := parallel.Fold(len(c.DS.Pages), c.workers, core.NewProviderUsage,
		func(u *core.ProviderUsage, i int) *core.ProviderUsage {
			u.AddSite(c.orgOf(c.DS.Pages[i].Entries[0].ServerASN), &c.plans[i])
			return u
		},
		func(a, b *core.ProviderUsage) *core.ProviderUsage {
			a.Merge(b)
			return a
		})
	changes := usage.Rank(topProviders, topHosts)
	var sb strings.Builder
	sb.WriteString("Table 9: top hostnames to include per top provider\n")
	for _, pc := range changes {
		fmt.Fprintf(&sb, "%s (%d sites)\n", pc.Provider, pc.SiteCount)
		for _, h := range pc.TopHosts {
			fmt.Fprintf(&sb, "    %-36s %8d  %6.2f%% of its sites\n", h.Key, h.Count, h.Share)
		}
	}
	return changes, sb.String()
}

// headlineFromCounts computes the §7 headline reductions.
type Headline struct {
	MedianMeasuredDNS   float64
	MedianMeasuredTLS   float64
	MedianIdealIP       float64
	MedianIdealOrigin   float64
	DNSReductionPct     float64
	TLSReductionPct     float64
	NoChangeSitesPct    float64
	AtMostTenChangesPct float64
}

// Headline computes the paper's headline numbers.
func (c *Corpus) Headline() (Headline, string) {
	var dns, tls, ip, origin []float64
	for _, pc := range c.counts {
		dns = append(dns, float64(pc.MeasuredDNS))
		tls = append(tls, float64(pc.MeasuredTLS))
		ip = append(ip, float64(pc.IdealIP))
		origin = append(origin, float64(pc.IdealOrigin))
	}
	s := c.certSummary()
	h := Headline{
		MedianMeasuredDNS: measure.Median(dns),
		MedianMeasuredTLS: measure.Median(tls),
		MedianIdealIP:     measure.Median(ip),
		MedianIdealOrigin: measure.Median(origin),
	}
	h.DNSReductionPct = measure.ReductionPct(h.MedianMeasuredDNS, h.MedianIdealOrigin)
	h.TLSReductionPct = measure.ReductionPct(h.MedianMeasuredTLS, h.MedianIdealOrigin)
	if s.Sites > 0 {
		h.NoChangeSitesPct = 100 * float64(s.NoChangeSites) / float64(s.Sites)
		h.AtMostTenChangesPct = 100 * float64(s.AtMostTenChanges) / float64(s.Sites)
	}
	txt := fmt.Sprintf(`Headline (paper §7 / §4):
  median DNS queries:      measured %.0f -> ideal ORIGIN %.0f  (-%.1f%%; paper -64.28%%)
  median TLS connections:  measured %.0f -> ideal ORIGIN %.0f  (-%.1f%%; paper -68.75%%)
  median ideal IP:         %.0f (paper 13)
  sites needing no cert changes: %.1f%% (paper 62.41%%)
  sites coalescing with <=10 changes: %.1f%% (paper 92.66%%)
`,
		h.MedianMeasuredDNS, h.MedianIdealOrigin, h.DNSReductionPct,
		h.MedianMeasuredTLS, h.MedianIdealOrigin, h.TLSReductionPct,
		h.MedianIdealIP, h.NoChangeSitesPct, h.AtMostTenChangesPct)
	return h, txt
}

// sortedCopy is a small helper for deterministic output in figures.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
