// Package report regenerates every table and figure of the paper's
// evaluation from a corpus (internal/webgen) and a deployment
// simulation (internal/cdn). Each Table*/Figure* function returns a
// structured result plus a formatted text rendering, so the same code
// backs the cmd/report binary, the benchmark harness, and EXPERIMENTS.md.
//
// Every per-page pass is an accumulator (fold.go): an add step per page
// and a merge that appends the accumulator of the pages that follow.
// Each keeps per-page scalars (enough for exact medians) or counters —
// by AS number where the key is an AS, named only when printed — and no
// page beyond the two that Figure 2 and the §6.1 workload show. One
// definition is driven two ways: over retained pages (NewCorpusWorkers,
// NewCorpusFromReader), each accumulator is filled by one parallel pass
// the first time something renders from it; over a stream
// (NewCorpusStream, ReplayStream), every accumulator is fed block by
// block and the pages are dropped. Chunks and blocks merge in page
// order, so output text is byte-identical to a sequential pass for any
// worker count and either driver.
package report

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"respectorigin/internal/core"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
)

// Table1Row is one popularity bucket of Table 1.
type Table1Row struct {
	Bucket     string
	Success    int
	MedianReqs float64
	MedianPLT  float64
	MedianDNS  float64
	MedianTLS  float64
}

// pageStats is the Table 1 and Figure 1 accumulator: a few scalars
// per page, in page order.
type pageStats struct{ rows []pageRow }

type pageRow struct {
	rank                int
	reqs, plt, dns, tls float64
	ases                int // distinct ASes contacted (Figure 1)
}

func (a *pageStats) add(s *scratch, p *har.Page) {
	a.rows = append(a.rows, pageRow{
		rank: p.Rank,
		reqs: float64(len(p.Entries)),
		plt:  p.PLT(),
		dns:  float64(p.DNSQueries()),
		tls:  float64(p.TLSConnections()),
		ases: s.distinctASes(p),
	})
}

func (a *pageStats) merge(next accumulator) { a.rows = append(a.rows, next.(*pageStats).rows...) }

// table1Samples are one bucket's samples.
type table1Samples struct {
	reqs, plt, dns, tls []float64
}

func (s *table1Samples) add(r *pageRow) {
	s.reqs = append(s.reqs, r.reqs)
	s.plt = append(s.plt, r.plt)
	s.dns = append(s.dns, r.dns)
	s.tls = append(s.tls, r.tls)
}

// Table1 reproduces Table 1: per-rank-bucket successes and medians.
func (c *Corpus) Table1(buckets int) ([]Table1Row, string) {
	if buckets <= 0 {
		buckets = 5
	}
	rows := get[*pageStats](c, partPages).rows
	maxRank := 0
	for i := range rows {
		maxRank = max(maxRank, rows[i].rank)
	}
	size := (maxRank + buckets - 1) / buckets
	if size == 0 {
		size = 1
	}
	bs := make([]table1Samples, buckets)
	var total table1Samples
	for i := range rows {
		b := min((rows[i].rank-1)/size, buckets-1)
		bs[b].add(&rows[i])
		total.add(&rows[i])
	}
	var out []Table1Row
	var sb strings.Builder
	sb.WriteString("Table 1: successful collection with median page-level attributes\n")
	sb.WriteString("Rank bucket        Success   #Reqs   PLT(ms)   #DNS  #TLS\n")
	for b := 0; b < buckets; b++ {
		a := bs[b]
		row := Table1Row{
			Bucket:     fmt.Sprintf("%d-%d", b*size+1, (b+1)*size),
			Success:    len(a.reqs),
			MedianReqs: measure.Median(a.reqs),
			MedianPLT:  measure.Median(a.plt),
			MedianDNS:  measure.Median(a.dns),
			MedianTLS:  measure.Median(a.tls),
		}
		out = append(out, row)
		fmt.Fprintf(&sb, "%-18s %7d   %5.0f   %7.0f   %4.0f  %4.0f\n",
			row.Bucket, row.Success, row.MedianReqs, row.MedianPLT, row.MedianDNS, row.MedianTLS)
	}
	fmt.Fprintf(&sb, "%-18s %7d   %5.0f   %7.0f   %4.0f  %4.0f   (failures: %d)\n",
		"Total", len(rows), measure.Median(total.reqs), measure.Median(total.plt),
		measure.Median(total.dns), measure.Median(total.tls), c.failures)
	return out, sb.String()
}

// asRequests is the Table 2 accumulator: requests per AS number.
type asRequests map[uint32]int64

func (a asRequests) add(_ *scratch, p *har.Page) {
	for i := range p.Entries {
		a[p.Entries[i].ServerASN]++
	}
}

func (a asRequests) merge(next accumulator) {
	for as, v := range next.(asRequests) {
		a[as] += v
	}
}

// Table2 reproduces Table 2: top destination ASes by requests. ASes
// are ranked by number first, and only the rows that can print are
// named: the n largest counts and every AS tied with row n, since a
// tie is broken by the row's name. Shares stay relative to all
// requests.
func (c *Corpus) Table2(n int) ([]measure.RankedEntry, string) {
	byASN := get[asRequests](c, partTable2)
	type asCount struct {
		as uint32
		n  int64
	}
	ranked := make([]asCount, 0, len(byASN))
	var total int64
	for as, v := range byASN {
		ranked = append(ranked, asCount{as, v})
		total += v
	}
	if n > 0 && len(ranked) > n {
		slices.SortFunc(ranked, func(a, b asCount) int { return cmp.Compare(b.n, a.n) })
		cut := n
		for cut < len(ranked) && ranked[cut].n == ranked[n-1].n {
			cut++
		}
		ranked = ranked[:cut]
	}
	rows := make([]measure.RankedEntry, len(ranked))
	for i, r := range ranked {
		rows[i] = measure.RankedEntry{
			Key:   fmt.Sprintf("AS%d %s", r.as, c.org(r.as)),
			Count: r.n,
			Share: 100 * float64(r.n) / float64(total),
		}
	}
	rows = measure.Rank(rows, n)
	return rows, measure.RankedTable("Table 2: top destination ASes for resource requests", rows)
}

// protocolAcc is the Table 3 accumulator: requests by protocol, and
// how many were secure.
type protocolAcc struct {
	cnt    *measure.Counter
	secure int64
}

func (a *protocolAcc) add(_ *scratch, p *har.Page) {
	for i := range p.Entries {
		a.cnt.Add(p.Entries[i].Protocol, 1)
		if p.Entries[i].Secure {
			a.secure++
		}
	}
}

func (a *protocolAcc) merge(next accumulator) {
	o := next.(*protocolAcc)
	a.cnt.Merge(o.cnt)
	a.secure += o.secure
}

// Table3 reproduces Table 3: request protocol mix and secure share.
func (c *Corpus) Table3() (map[string]int64, float64, string) {
	acc := get[*protocolAcc](c, partTable3)
	out := map[string]int64{}
	for _, e := range acc.cnt.Top(0) {
		out[e.Key] = e.Count
	}
	total := acc.cnt.Total()
	secShare := 100 * float64(acc.secure) / float64(total)
	s := acc.cnt.TableString("Table 3: requests by application protocol", 0) +
		fmt.Sprintf("Secure share: %.2f%% (%d of %d)\n", secShare, acc.secure, total)
	return out, secShare, s
}

// entryCount tallies one string per counted entry: the accumulator of
// Tables 4, 5 and 7.
type entryCount struct {
	keyOf func(p *har.Page, i int) (string, bool)
	cnt   *measure.Counter
}

func newEntryCount(keyOf func(p *har.Page, i int) (string, bool)) *entryCount {
	return &entryCount{keyOf: keyOf, cnt: measure.NewCounter()}
}

func (a *entryCount) add(_ *scratch, p *har.Page) {
	for i := range p.Entries {
		if key, ok := a.keyOf(p, i); ok {
			a.cnt.Add(key, 1)
		}
	}
}

func (a *entryCount) merge(next accumulator) { a.cnt.Merge(next.(*entryCount).cnt) }

// issuerOf keys Table 4: the issuer of each validated certificate.
func issuerOf(p *har.Page, i int) (string, bool) {
	e := &p.Entries[i]
	return e.CertIssuer, e.NewTLS && e.CertIssuer != ""
}

// mimeOf keys Table 5: every request's content type.
func mimeOf(p *har.Page, i int) (string, bool) { return p.Entries[i].MimeType, true }

// subresourceHostOf keys Table 7: the host of every subresource.
func subresourceHostOf(p *har.Page, i int) (string, bool) { return p.Entries[i].Host, i > 0 }

// Table4 reproduces Table 4: top certificate issuers by validations.
func (c *Corpus) Table4(n int) ([]measure.RankedEntry, string) {
	cnt := get[*entryCount](c, partTable4).cnt
	return cnt.Top(n), cnt.TableString("Table 4: top certificate issuers by validations", n)
}

// Table5 reproduces Table 5: requests by content type.
func (c *Corpus) Table5(n int) ([]measure.RankedEntry, string) {
	cnt := get[*entryCount](c, partTable5).cnt
	return cnt.Top(n), cnt.TableString("Table 5: requests by content type", n)
}

// Table6Row is one AS section of Table 6.
type Table6Row struct {
	Types []measure.RankedEntry
}

// asTypes is the Table 6 accumulator: content types per AS number.
type asTypes map[uint32]*measure.Counter

func (a asTypes) add(_ *scratch, p *har.Page) {
	for i := range p.Entries {
		e := &p.Entries[i]
		tc, ok := a[e.ServerASN]
		if !ok {
			tc = measure.NewCounter()
			a[e.ServerASN] = tc
		}
		tc.Add(e.MimeType, 1)
	}
}

func (a asTypes) merge(next accumulator) {
	for as, tc := range next.(asTypes) {
		if mine, ok := a[as]; ok {
			mine.Merge(tc)
		} else {
			a[as] = tc
		}
	}
}

// Table6 reproduces Table 6: top content types per top AS. Several
// ASes may belong to one organization, and the sections are
// organizations, so each distinct AS is named once here.
func (c *Corpus) Table6(topAS, topTypes int) ([]Table6Row, string) {
	byASN := get[asTypes](c, partTable6)
	asCnt := measure.NewCounter()
	asns := map[string][]uint32{}
	for as, tc := range byASN {
		org := c.org(as)
		asCnt.Add(org, tc.Total())
		asns[org] = append(asns[org], as)
	}
	var rows []Table6Row
	var sb strings.Builder
	sb.WriteString("Table 6: top content types per top AS\n")
	for _, as := range asCnt.Top(topAS) {
		types := measure.NewCounter()
		for _, a := range asns[as.Key] {
			types.Merge(byASN[a])
		}
		row := Table6Row{Types: types.Top(topTypes)}
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
	cnt := get[*entryCount](c, partTable7).cnt
	return cnt.Top(n), cnt.TableString("Table 7: top subresource hostnames", n)
}

// modelAcc is the §4 accumulator behind Table 8, Figures 3–5 and the
// headline: each page's §4.2 counts, in page order, and the §4.3
// summary of its certificate plan.
type modelAcc struct {
	counts []core.PageCounts
	certs  core.CertPlanSummary
}

func (a *modelAcc) add(s *scratch, p *har.Page) {
	a.counts = append(a.counts, s.timeline(p).Counts())
	a.certs.AddPlan(s.certPlan(p))
}

func (a *modelAcc) merge(next accumulator) {
	o := next.(*modelAcc)
	a.counts = append(a.counts, o.counts...)
	a.certs.Merge(o.certs)
}

// providerAcc is the Table 9 accumulator.
type providerAcc struct{ u *core.ProviderUsage }

func (a *providerAcc) add(s *scratch, p *har.Page) {
	a.u.AddSite(p.Entries[0].ServerASN, s.certPlan(p))
}

func (a *providerAcc) merge(next accumulator) { a.u.Merge(next.(*providerAcc).u) }

// Table8 reproduces Table 8: ranked SAN-size distribution, measured vs
// ideal after the §4.3 modifications.
func (c *Corpus) Table8(n int) ([]core.SANRankRow, string) {
	rows := core.SANRankTable(get[*modelAcc](c, partModel).certs, n)
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
	changes := get[*providerAcc](c, partProviders).u.Rank(c.org, topProviders, topHosts)
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
	m := get[*modelAcc](c, partModel)
	dns, tls, ip, origin := m.series()
	s := m.certs
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

// series returns the four §4.2 counts of every page, in page order.
func (a *modelAcc) series() (dns, tls, ip, origin []float64) {
	n := len(a.counts)
	dns, tls, ip, origin = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, pc := range a.counts {
		dns[i] = float64(pc.MeasuredDNS)
		tls[i] = float64(pc.MeasuredTLS)
		ip[i] = float64(pc.IdealIP)
		origin[i] = float64(pc.IdealOrigin)
	}
	return dns, tls, ip, origin
}
