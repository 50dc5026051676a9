package core

import (
	"sort"

	"respectorigin/internal/measure"
)

// CertPlan is the §4.3 least-effort certificate modification for one
// website: the hostnames that must be added to the site's existing
// certificate so that every same-service subresource can coalesce onto
// the base-page connection.
type CertPlan struct {
	// Existing are the current SAN entries of the root certificate: the
	// page's own slice, shared, not a copy.
	Existing []string
	// Additions are the coalescable hostnames absent from the SANs.
	Additions []string
	// Coalescable are all hostnames reachable on the base-page service.
	Coalescable []string
}

// idealCount returns the SAN size after modification.
func (cp CertPlan) idealCount() int { return len(cp.Existing) + len(cp.Additions) }

// CertPlanSummary aggregates §4.3 statistics across a corpus.
type CertPlanSummary struct {
	Sites int
	// NoChangeSites need no SAN modifications at all.
	NoChangeSites int
	// AtMostTenChanges counts sites needing ≤10 additions.
	AtMostTenChanges int
	// Over78Changes counts the long tail needing >78 additions.
	Over78Changes int
	// Existing and Ideal SAN size samples, index-aligned by site.
	ExistingSizes []int
	IdealSizes    []int
	AdditionSizes []int
	// Over250Existing / Over250Ideal count certificates above 250 SANs.
	Over250Existing int
	Over250Ideal    int
	// MaxIdeal is the largest post-change SAN size.
	MaxIdeal int
}

// AddPlan folds one site's plan into the summary.
func (s *CertPlanSummary) AddPlan(p *CertPlan) {
	add := len(p.Additions)
	ex := len(p.Existing)
	id := p.idealCount()
	s.Sites++
	s.ExistingSizes = append(s.ExistingSizes, ex)
	s.IdealSizes = append(s.IdealSizes, id)
	s.AdditionSizes = append(s.AdditionSizes, add)
	if add == 0 {
		s.NoChangeSites++
	}
	if add <= 10 {
		s.AtMostTenChanges++
	}
	if add > 78 {
		s.Over78Changes++
	}
	if ex > 250 {
		s.Over250Existing++
	}
	if id > 250 {
		s.Over250Ideal++
	}
	if id > s.MaxIdeal {
		s.MaxIdeal = id
	}
}

// Merge folds another summary into s. The operation is associative with
// respect to plan-slice concatenation: summarizing contiguous shards
// and merging left-to-right equals summarizing the whole corpus, which
// is what lets the report layer compute Tables 8 and Figures 4-5 with
// a parallel map-reduce.
func (s *CertPlanSummary) Merge(o CertPlanSummary) {
	s.Sites += o.Sites
	s.NoChangeSites += o.NoChangeSites
	s.AtMostTenChanges += o.AtMostTenChanges
	s.Over78Changes += o.Over78Changes
	s.ExistingSizes = append(s.ExistingSizes, o.ExistingSizes...)
	s.IdealSizes = append(s.IdealSizes, o.IdealSizes...)
	s.AdditionSizes = append(s.AdditionSizes, o.AdditionSizes...)
	s.Over250Existing += o.Over250Existing
	s.Over250Ideal += o.Over250Ideal
	if o.MaxIdeal > s.MaxIdeal {
		s.MaxIdeal = o.MaxIdeal
	}
}

// SANRankRow is one row of Table 8: a SAN size and how many sites have
// it, for the measured and ideal distributions.
type SANRankRow struct {
	Rank          int
	MeasuredSize  int
	MeasuredCount int
	IdealSize     int
	IdealCount    int
}

// SANRankTable computes the Table 8 top-n ranking of SAN sizes.
func SANRankTable(s CertPlanSummary, n int) []SANRankRow {
	rank := func(sizes []int) []struct{ size, count int } {
		h := measure.Histogram(sizes)
		out := make([]struct{ size, count int }, 0, len(h))
		for size, count := range h {
			out = append(out, struct{ size, count int }{size, count})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].count != out[j].count {
				return out[i].count > out[j].count
			}
			return out[i].size < out[j].size
		})
		return out
	}
	m := rank(s.ExistingSizes)
	id := rank(s.IdealSizes)
	var rows []SANRankRow
	for i := 0; i < n && i < len(m) && i < len(id); i++ {
		rows = append(rows, SANRankRow{
			Rank:          i + 1,
			MeasuredSize:  m[i].size,
			MeasuredCount: m[i].count,
			IdealSize:     id[i].size,
			IdealCount:    id[i].count,
		})
	}
	return rows
}

// ProviderChange is one row of Table 9: a hosting provider, the number
// of its sites in the corpus, and the most frequently needed hostnames
// to add to its customers' certificates.
type ProviderChange struct {
	Provider  string
	SiteCount int
	TopHosts  []measure.RankedEntry
}

// ProviderUsage accumulates the Table 9 aggregation — per-provider site
// counts and per-provider coalescable-hostname counts — keyed by the
// base page's AS number; Rank names the ASes. Shards build private
// accumulators and recombine with Merge.
type ProviderUsage struct {
	sites map[uint32]*providerSites
}

// providerSites is what one AS's sites need added.
type providerSites struct {
	n     int64
	hosts *measure.Counter
}

// NewProviderUsage returns an empty accumulator.
func NewProviderUsage() *ProviderUsage {
	return &ProviderUsage{sites: map[uint32]*providerSites{}}
}

// AddSite folds one site into the accumulator: asn is the AS serving
// its base page, plan its certificate plan.
func (u *ProviderUsage) AddSite(asn uint32, plan *CertPlan) {
	ps, ok := u.sites[asn]
	if !ok {
		ps = &providerSites{hosts: measure.NewCounter()}
		u.sites[asn] = ps
	}
	ps.n++
	for _, h := range plan.Coalescable {
		ps.hosts.Add(h, 1)
	}
}

// Merge folds another accumulator in; associative and commutative. o
// must not be used afterwards: u may take over its parts.
func (u *ProviderUsage) Merge(o *ProviderUsage) {
	if o == nil || o == u {
		return
	}
	for asn, ps := range o.sites {
		mine, ok := u.sites[asn]
		if !ok {
			u.sites[asn] = ps
			continue
		}
		mine.n += ps.n
		mine.hosts.Merge(ps.hosts)
	}
}

// Rank produces the Table 9 rows: the topProviders providers by site
// count, each with its topHosts most frequently needed hostnames, with
// shares relative to the provider's site count ("requested by x% of
// websites served by P"). org names a provider by AS number; ASes of
// one name are one provider, and sites whose AS has no name are left
// out. Rank reads u and leaves it as it was.
func (u *ProviderUsage) Rank(org func(uint32) string, topProviders, topHosts int) []ProviderChange {
	siteCount := measure.NewCounter()
	asns := map[string][]uint32{}
	for asn, ps := range u.sites {
		name := org(asn)
		if name == "" {
			continue
		}
		siteCount.Add(name, ps.n)
		asns[name] = append(asns[name], asn)
	}
	var out []ProviderChange
	for _, pe := range siteCount.Top(topProviders) {
		hc := measure.NewCounter()
		for _, asn := range asns[pe.Key] {
			hc.Merge(u.sites[asn].hosts)
		}
		hosts := hc.Top(topHosts)
		for i := range hosts {
			hosts[i].Share = 100 * float64(hosts[i].Count) / float64(pe.Count)
		}
		out = append(out, ProviderChange{
			Provider:  pe.Key,
			SiteCount: int(pe.Count),
			TopHosts:  hosts,
		})
	}
	return out
}
