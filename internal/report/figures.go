package report

import (
	"fmt"
	"sort"
	"strings"

	"respectorigin/internal/core"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
	"respectorigin/internal/parallel"
)

// Figure1 reproduces Figure 1: the frequency distribution and CDF of
// unique ASes contacted per page.
func (c *Corpus) Figure1() (hist map[int]int, cdf []measure.CDFPoint, text string) {
	// A page contacts a handful of ASes: a linear scan of the ones seen so
	// far beats a set, and the list is the worker's to reuse.
	xs := parallel.MapWith(len(c.DS.Pages), c.workers,
		func() *[]uint32 { return new([]uint32) },
		func(seen *[]uint32, i int) int {
			*seen = (*seen)[:0]
			p := c.DS.Pages[i]
		entries:
			for j := range p.Entries {
				as := p.Entries[j].ServerASN
				for _, s := range *seen {
					if s == as {
						continue entries
					}
				}
				*seen = append(*seen, as)
			}
			return len(*seen)
		})
	fs := make([]float64, len(xs))
	for i, n := range xs {
		fs[i] = float64(n)
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

// Figure2 reproduces Figure 2: one page's waterfall before and after
// ORIGIN-frame reconstruction.
func (c *Corpus) Figure2(pageIdx, width int) string {
	if pageIdx < 0 || pageIdx >= len(c.DS.Pages) {
		pageIdx = 0
	}
	p := c.DS.Pages[pageIdx]
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

// Figure3Data carries the four CDFs of Figure 3.
type Figure3Data struct {
	MeasuredDNS []measure.CDFPoint
	MeasuredTLS []measure.CDFPoint
	IdealIP     []measure.CDFPoint
	IdealOrigin []measure.CDFPoint
}

// Figure3 reproduces Figure 3: CDFs of per-page DNS queries and TLS
// connections, measured vs ideal IP vs ideal ORIGIN coalescing.
func (c *Corpus) Figure3() (Figure3Data, string) {
	var dns, tls, ip, origin []float64
	for _, pc := range c.counts {
		dns = append(dns, float64(pc.MeasuredDNS))
		tls = append(tls, float64(pc.MeasuredTLS))
		ip = append(ip, float64(pc.IdealIP))
		origin = append(origin, float64(pc.IdealOrigin))
	}
	d := Figure3Data{
		MeasuredDNS: measure.CDF(dns),
		MeasuredTLS: measure.CDF(tls),
		IdealIP:     measure.CDF(ip),
		IdealOrigin: measure.CDF(origin),
	}
	var sb strings.Builder
	sb.WriteString("Figure 3: DNS queries / TLS connections per page\n")
	sb.WriteString(measure.FormatCDF("  measured DNS", dns) + "\n")
	sb.WriteString(measure.FormatCDF("  measured TLS", tls) + "\n")
	sb.WriteString(measure.FormatCDF("  ideal IP coalescing", ip) + "\n")
	sb.WriteString(measure.FormatCDF("  ideal ORIGIN coalescing", origin) + "\n")
	return d, sb.String()
}

// Figure4 reproduces Figure 4: CDFs of SAN counts in existing vs ideal
// certificates.
func (c *Corpus) Figure4() (existing, ideal []measure.CDFPoint, text string) {
	s := c.certSummary()
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
	RankByExisting int
	Existing       int
	Added          int
	Ideal          int
}

// Figure5 reproduces Figure 5: sites ranked by existing SAN size with
// the per-site additions and resulting ideal sizes.
func (c *Corpus) Figure5() ([]Figure5Point, string) {
	s := c.certSummary()
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
	for i := range pts {
		pts[i].RankByExisting = i + 1
	}
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

// Figure9ModelData carries the PLT CDFs of Figure 9 (top).
type Figure9ModelData struct {
	Measured    []measure.CDFPoint
	IdealIP     []measure.CDFPoint
	IdealOrigin []measure.CDFPoint
	CDNOrigin   []measure.CDFPoint

	MedianMeasured  float64
	MedianIP        float64
	MedianOrigin    float64
	MedianCDNOrigin float64
}

// Figure9Model reproduces Figure 9 (top): model-predicted PLT CDFs for
// measured, ideal IP, ideal ORIGIN, and ORIGIN-at-one-CDN coalescing.
// cdnASN identifies the deployment CDN (Cloudflare in the paper).
func (c *Corpus) Figure9Model(cdnASN uint32) (Figure9ModelData, string) {
	// Three timeline rebuilds per page, on one core.Timeline per worker.
	type plts struct{ meas, ip, origin, cdnOnly float64 }
	perPage := parallel.MapWith(len(c.DS.Pages), c.workers, newTimeline, func(t *core.Timeline, i int) plts {
		p := c.DS.Pages[i]
		t.Load(p)
		return plts{
			meas:    p.PLT(),
			ip:      t.PLT(core.ModeIP, 0),
			origin:  t.PLT(core.ModeOrigin, 0),
			cdnOnly: t.PLT(core.ModeOriginCDN, cdnASN),
		}
	})
	meas := make([]float64, 0, len(perPage))
	ip := make([]float64, 0, len(perPage))
	origin := make([]float64, 0, len(perPage))
	cdnOnly := make([]float64, 0, len(perPage))
	for _, v := range perPage {
		meas = append(meas, v.meas)
		ip = append(ip, v.ip)
		origin = append(origin, v.origin)
		cdnOnly = append(cdnOnly, v.cdnOnly)
	}
	d := Figure9ModelData{
		Measured:        measure.CDF(meas),
		IdealIP:         measure.CDF(ip),
		IdealOrigin:     measure.CDF(origin),
		CDNOrigin:       measure.CDF(cdnOnly),
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
