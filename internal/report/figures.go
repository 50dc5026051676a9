package report

import (
	"fmt"
	"sort"
	"strings"

	"respectorigin/internal/core"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
)

// distinctASes counts the ASes p contacts. A page contacts a handful:
// a linear scan of the ones seen so far beats a set, and the list is
// the worker's to reuse.
func (s *scratch) distinctASes(p *har.Page) int {
	s.ases = s.ases[:0]
entries:
	for j := range p.Entries {
		as := p.Entries[j].ServerASN
		for _, seen := range s.ases {
			if seen == as {
				continue entries
			}
		}
		s.ases = append(s.ases, as)
	}
	return len(s.ases)
}

// Figure1 reproduces Figure 1: the frequency distribution and CDF of
// unique ASes contacted per page.
func (c *Corpus) Figure1() (hist map[int]int, cdf []measure.CDFPoint, text string) {
	rows := get[*pageStats](c, partPages).rows
	xs := make([]int, len(rows))
	fs := make([]float64, len(rows))
	for i := range rows {
		xs[i] = rows[i].ases
		fs[i] = float64(rows[i].ases)
	}
	hist = measure.Histogram(xs)
	cdf = measure.CDF(fs)
	var sb strings.Builder
	sb.WriteString("Figure 1: unique ASes contacted per page\n")
	total := len(xs)
	for n := 1; n <= 12; n++ {
		fmt.Fprintf(&sb, "  %2d ASes: %5.1f%%  (cdf %.2f)\n",
			n, 100*float64(hist[n])/float64(total), measure.CDFAt(cdf, float64(n)))
	}
	fmt.Fprintf(&sb, "  median: %.0f (paper: ~6 for 50%% of pages)\n", measure.Median(fs))
	return hist, cdf, sb.String()
}

// sampleAcc keeps the two pages the report shows whole: the corpus's
// first page (Figure 2) and its first page of at least 12 entries (the
// §6.1 workload). A decoded page owns its memory (DESIGN.md §10), so
// keeping one keeps ≈ 40 KiB and nothing of its neighbours.
type sampleAcc struct{ first, sched *har.Page }

func (a *sampleAcc) add(_ *scratch, p *har.Page) {
	if a.first == nil {
		a.first = p
	}
	if a.sched == nil && len(p.Entries) >= 12 {
		a.sched = p
	}
}

func (a *sampleAcc) merge(next accumulator) {
	o := next.(*sampleAcc)
	if a.first == nil {
		a.first = o.first
	}
	if a.sched == nil {
		a.sched = o.sched
	}
}

// Figure2 reproduces Figure 2: the corpus's first page's waterfall
// before and after ORIGIN-frame reconstruction.
func (c *Corpus) Figure2(width int) string {
	p := get[*sampleAcc](c, partSample).first
	q := core.Reconstruct(p, core.ModeOrigin, 0)
	var sb strings.Builder
	sb.WriteString("Figure 2: timeline reconstruction (top: measured, bottom: coalesced)\n\n")
	sb.WriteString(har.Waterfall(p, width))
	sb.WriteString("\n")
	sb.WriteString(har.Waterfall(q, width))
	fmt.Fprintf(&sb, "\nTime saved: %.0f ms (%.1f%%)\n", p.PLT()-q.PLT(),
		measure.ReductionPct(p.PLT(), q.PLT()))
	return sb.String()
}

// Figure3Data is what Figure3 returns beside its text; nothing reads
// the four CDFs, so it carries none of them.
type Figure3Data struct{}

// Figure3 reproduces Figure 3: CDFs of per-page DNS queries and TLS
// connections, measured vs ideal IP vs ideal ORIGIN coalescing.
func (c *Corpus) Figure3() (Figure3Data, string) {
	dns, tls, ip, origin := get[*modelAcc](c, partModel).series()
	var sb strings.Builder
	sb.WriteString("Figure 3: DNS queries / TLS connections per page\n")
	sb.WriteString(measure.FormatCDF("  measured DNS", dns) + "\n")
	sb.WriteString(measure.FormatCDF("  measured TLS", tls) + "\n")
	sb.WriteString(measure.FormatCDF("  ideal IP coalescing", ip) + "\n")
	sb.WriteString(measure.FormatCDF("  ideal ORIGIN coalescing", origin) + "\n")
	return Figure3Data{}, sb.String()
}

// Figure4 reproduces Figure 4: CDFs of SAN counts in existing vs ideal
// certificates.
func (c *Corpus) Figure4() (existing, ideal []measure.CDFPoint, text string) {
	s := get[*modelAcc](c, partModel).certs
	ex := make([]float64, len(s.ExistingSizes))
	id := make([]float64, len(s.IdealSizes))
	for i := range s.ExistingSizes {
		ex[i] = float64(s.ExistingSizes[i])
		id[i] = float64(s.IdealSizes[i])
	}
	var sb strings.Builder
	sb.WriteString("Figure 4: DNS SAN names per certificate (existing vs ideal)\n")
	sb.WriteString(measure.FormatCDF("  existing certificates", ex) + "\n")
	sb.WriteString(measure.FormatCDF("  ideal certificates", id) + "\n")
	fmt.Fprintf(&sb, "  median shift: %.0f -> %.0f (paper: 2 -> 3); p75 %.0f -> %.0f (paper: 3 -> 7)\n",
		measure.Median(ex), measure.Median(id), measure.Quantile(ex, 0.75), measure.Quantile(id, 0.75))
	return measure.CDF(ex), measure.CDF(id), sb.String()
}

// Figure5Point is one site in the Figure 5 scatter.
type Figure5Point struct {
	Existing int
	Added    int
	Ideal    int
}

// Figure5 reproduces Figure 5: sites ranked by existing SAN size with
// the per-site additions and resulting ideal sizes.
func (c *Corpus) Figure5() ([]Figure5Point, string) {
	s := get[*modelAcc](c, partModel).certs
	pts := make([]Figure5Point, len(s.ExistingSizes))
	for i := range pts {
		pts[i] = Figure5Point{
			Existing: s.ExistingSizes[i],
			Added:    s.AdditionSizes[i],
			Ideal:    s.IdealSizes[i],
		}
	}
	// Rank by existing size descending; sites of equal size keep corpus
	// order.
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Existing > pts[j].Existing })
	var sb strings.Builder
	sb.WriteString("Figure 5: tail distribution of SAN entries (ranked by existing size)\n")
	fmt.Fprintf(&sb, "  sites: %d; no-change sites: %d (%.1f%%; paper 62.41%%)\n",
		s.Sites, s.NoChangeSites, 100*float64(s.NoChangeSites)/float64(maxi(s.Sites, 1)))
	fmt.Fprintf(&sb, "  >250-SAN certificates: existing %d -> ideal %d (paper: 230 -> 529)\n",
		s.Over250Existing, s.Over250Ideal)
	fmt.Fprintf(&sb, "  largest ideal certificate: %d SANs (paper: 1951)\n", s.MaxIdeal)
	for _, r := range []int{0, 9, 99, 999} {
		if r < len(pts) {
			fmt.Fprintf(&sb, "  rank %4d: existing=%d added=%d ideal=%d\n",
				r+1, pts[r].Existing, pts[r].Added, pts[r].Ideal)
		}
	}
	return pts, sb.String()
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// fig9Acc is the Figure 9 (top) accumulator for one deployment CDN:
// each page's measured PLT and its three timeline rebuilds.
type fig9Acc struct {
	cdnASN uint32
	rows   []fig9Row
}

type fig9Row struct{ meas, ip, origin, cdnOnly float64 }

func (a *fig9Acc) add(s *scratch, p *har.Page) {
	t := s.timeline(p)
	a.rows = append(a.rows, fig9Row{
		meas:    p.PLT(),
		ip:      t.PLT(core.ModeIP, 0),
		origin:  t.PLT(core.ModeOrigin, 0),
		cdnOnly: t.PLT(core.ModeOriginCDN, a.cdnASN),
	})
}

func (a *fig9Acc) merge(next accumulator) { a.rows = append(a.rows, next.(*fig9Acc).rows...) }

// Figure9ModelData carries the median PLTs of Figure 9 (top).
type Figure9ModelData struct {
	MedianMeasured  float64
	MedianIP        float64
	MedianOrigin    float64
	MedianCDNOrigin float64
}

// Figure9Model reproduces Figure 9 (top): model-predicted PLT CDFs for
// measured, ideal IP, ideal ORIGIN, and ORIGIN-at-one-CDN coalescing.
// cdnASN identifies the deployment CDN (Cloudflare in the paper); a
// streamed corpus answers only for the CDN it was folded with.
func (c *Corpus) Figure9Model(cdnASN uint32) (Figure9ModelData, string) {
	rows := c.part(partKey{partFig9, cdnASN}).(*fig9Acc).rows
	meas := make([]float64, len(rows))
	ip := make([]float64, len(rows))
	origin := make([]float64, len(rows))
	cdnOnly := make([]float64, len(rows))
	for i, r := range rows {
		meas[i], ip[i], origin[i], cdnOnly[i] = r.meas, r.ip, r.origin, r.cdnOnly
	}
	d := Figure9ModelData{
		MedianMeasured:  measure.Median(meas),
		MedianIP:        measure.Median(ip),
		MedianOrigin:    measure.Median(origin),
		MedianCDNOrigin: measure.Median(cdnOnly),
	}
	var sb strings.Builder
	sb.WriteString("Figure 9 (top): model-predicted page load times\n")
	fmt.Fprintf(&sb, "  measured median PLT:            %8.0f ms\n", d.MedianMeasured)
	fmt.Fprintf(&sb, "  ideal IP coalescing:            %8.0f ms (-%.1f%%; paper ~-10%%)\n",
		d.MedianIP, measure.ReductionPct(d.MedianMeasured, d.MedianIP))
	fmt.Fprintf(&sb, "  ideal ORIGIN coalescing:        %8.0f ms (-%.1f%%; paper ~-27%%)\n",
		d.MedianOrigin, measure.ReductionPct(d.MedianMeasured, d.MedianOrigin))
	fmt.Fprintf(&sb, "  ORIGIN at deployment CDN only:  %8.0f ms (-%.1f%%; paper ~-1.5%%)\n",
		d.MedianCDNOrigin, measure.ReductionPct(d.MedianMeasured, d.MedianCDNOrigin))
	return d, sb.String()
}
