package core

import (
	"reflect"
	"testing"

	"respectorigin/internal/har"
	"respectorigin/internal/webgen"
)

func TestPlanCertChanges(t *testing.T) {
	p := modelPage()
	plan := PlanCertChanges(p)
	// Coalescable: the three same-AS hosts (static, assets, fonts).
	wantCoal := []string{"assets.cdnhost.com", "fonts.cdnhost.com", "static.example.com"}
	if len(plan.Coalescable) != 3 {
		t.Fatalf("coalescable = %v", plan.Coalescable)
	}
	for i, h := range wantCoal {
		if plan.Coalescable[i] != h {
			t.Errorf("coalescable[%d] = %s, want %s", i, plan.Coalescable[i], h)
		}
	}
	// None are covered by the existing SANs, so all need adding.
	if len(plan.Additions) != 3 {
		t.Errorf("additions = %v", plan.Additions)
	}
	if len(plan.Existing) != 2 || plan.idealCount() != 5 {
		t.Errorf("counts: existing=%d ideal=%d", len(plan.Existing), plan.idealCount())
	}
}

func TestPlanRespectsWildcards(t *testing.T) {
	p := modelPage()
	p.Entries[0].CertSANs = []string{"www.example.com", "*.example.com", "*.cdnhost.com"}
	plan := PlanCertChanges(p)
	if len(plan.Additions) != 0 {
		t.Errorf("wildcard-covered hosts still added: %v", plan.Additions)
	}
	if len(plan.Coalescable) != 3 {
		t.Errorf("coalescable = %v", plan.Coalescable)
	}
}

func TestPlanInsecureRoot(t *testing.T) {
	p := modelPage()
	p.Entries[0].Secure = false
	plan := PlanCertChanges(p)
	if len(plan.Additions) != 0 || len(plan.Coalescable) != 0 {
		t.Errorf("insecure root produced a plan: %+v", plan)
	}
}

func TestPlanSkipsOtherASHosts(t *testing.T) {
	p := modelPage()
	plan := PlanCertChanges(p)
	for _, h := range plan.Additions {
		if h == "analytics.tracker.com" {
			t.Error("cross-AS host planned into certificate")
		}
	}
}

// PlanCertChanges is Timeline.CertPlanInto for one page.
func PlanCertChanges(p *har.Page) CertPlan {
	var t Timeline
	var plan CertPlan
	t.Load(p)
	t.CertPlanInto(&plan)
	return plan
}

// summarize is the sequential §4.3 summary the parallel folds are held
// to.
func summarize(plans []CertPlan) CertPlanSummary {
	var s CertPlanSummary
	for i := range plans {
		s.AddPlan(&plans[i])
	}
	return s
}

// mostEffectiveChanges is Table 9 in one sequential pass: additions
// aggregated by the provider hosting each base page.
func mostEffectiveChanges(pages []*har.Page, plans []CertPlan, topProviders, topHosts int) []ProviderChange {
	u := NewProviderUsage()
	for i, p := range pages {
		u.AddSite(p.Entries[0].ServerASN, &plans[i])
	}
	return u.Rank(webgen.OrgOf, topProviders, topHosts)
}

func TestSummarizeCertPlans(t *testing.T) {
	p1 := modelPage() // 3 additions
	p2 := modelPage()
	p2.Entries[0].CertSANs = []string{"www.example.com", "*.example.com", "*.cdnhost.com"} // 0 additions
	plans := []CertPlan{PlanCertChanges(p1), PlanCertChanges(p2)}
	s := summarize(plans)
	if s.Sites != 2 || s.NoChangeSites != 1 || s.AtMostTenChanges != 2 || s.Over78Changes != 0 {
		t.Errorf("summary = %+v", s)
	}
	if s.MaxIdeal != 5 {
		t.Errorf("max ideal = %d", s.MaxIdeal)
	}
}

func TestSANRankTable(t *testing.T) {
	s := CertPlanSummary{
		ExistingSizes: []int{2, 2, 2, 3, 3, 1},
		IdealSizes:    []int{2, 2, 5, 5, 5, 3},
	}
	rows := SANRankTable(s, 2)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].MeasuredSize != 2 || rows[0].MeasuredCount != 3 {
		t.Errorf("row 0 measured = %+v", rows[0])
	}
	if rows[0].IdealSize != 5 || rows[0].IdealCount != 3 {
		t.Errorf("row 0 ideal = %+v", rows[0])
	}
}

func TestMostEffectiveChanges(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 2000
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]CertPlan, len(ds.Pages))
	for i, p := range ds.Pages {
		plans[i] = PlanCertChanges(p)
	}
	changes := mostEffectiveChanges(ds.Pages, plans, 3, 5)
	if len(changes) != 3 {
		t.Fatalf("providers = %d", len(changes))
	}
	// Cloudflare hosts the most sites (Table 9: 24.74%).
	if changes[0].Provider != "Cloudflare" {
		t.Errorf("top provider = %s, want Cloudflare", changes[0].Provider)
	}
	// Its top candidate hostnames include the cdnjs-style shared hosts.
	found := false
	for _, h := range changes[0].TopHosts {
		if h.Key == "cdnjs.cloudflare.com" || h.Key == "cdn.shopify.com" {
			found = true
		}
		if h.Share <= 0 || h.Share > 100 {
			t.Errorf("share out of range: %+v", h)
		}
	}
	if !found {
		t.Errorf("expected shared CDN hostnames in %v", changes[0].TopHosts)
	}
}

// TestCorpusCertHeadlines checks the §4.3/§7 aggregate shape: a
// majority of sites need no changes, ≥90% coalesce with ≤10 additions,
// and only a small tail needs more than 78.
func TestCorpusCertHeadlines(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 3000
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]CertPlan, len(ds.Pages))
	for i, p := range ds.Pages {
		plans[i] = PlanCertChanges(p)
	}
	s := summarize(plans)
	noChange := float64(s.NoChangeSites) / float64(s.Sites)
	// Paper: 62.41% need no modifications.
	if noChange < 0.35 || noChange > 0.85 {
		t.Errorf("no-change fraction = %.2f, paper 0.62", noChange)
	}
	leTen := float64(s.AtMostTenChanges) / float64(s.Sites)
	// Paper: 92.66% coalesce with ≤10 changes.
	if leTen < 0.85 {
		t.Errorf("≤10-change fraction = %.2f, paper 0.93", leTen)
	}
	tail := float64(s.Over78Changes) / float64(s.Sites)
	if tail > 0.05 {
		t.Errorf(">78-change tail = %.3f, paper 0.01", tail)
	}
}

// TestSanCovers pins which hosts the §4 model counts as already covered
// by the visited site's certificate: exact names and single-label
// wildcards, never a wildcard's bare suffix or a deeper name.
func TestSanCovers(t *testing.T) {
	cases := []struct {
		host string
		want bool
	}{
		{"a.example.com", true},
		{"x.b.example.com", true},
		{"x.y.b.example.com", false},
		{"b.example.com", false},
		{"c.example.com", false},
	}
	for _, c := range cases {
		p := modelPage()
		p.Entries[0].CertSANs = []string{"a.example.com", "*.b.example.com"}
		e := p.Entries[1] // same AS as the base page
		e.Host, e.URL = c.host, "https://"+c.host+"/"
		p.Entries = []har.Entry{p.Entries[0], e}
		plan := PlanCertChanges(p)
		if len(plan.Coalescable) != 1 {
			t.Fatalf("%s: coalescable = %v", c.host, plan.Coalescable)
		}
		if covered := len(plan.Additions) == 0; covered != c.want {
			t.Errorf("%s covered = %v, want %v (additions %v)", c.host, covered, c.want, plan.Additions)
		}
	}
}

func TestPlanHandlesDuplicateHosts(t *testing.T) {
	p := modelPage()
	// Duplicate a coalescable entry; additions must stay deduped.
	p.Entries = append(p.Entries, p.Entries[1])
	p.Entries[len(p.Entries)-1].Initiator = 0
	plan := PlanCertChanges(p)
	if len(plan.Additions) != 3 {
		t.Errorf("duplicates not deduped: %v", plan.Additions)
	}
	_ = har.Entry{}
}

// Summarizing contiguous shards and merging equals summarizing the
// whole corpus — the invariant the parallel report passes rely on.
func TestCertPlanSummaryMergeMatchesSequential(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 300
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]CertPlan, len(ds.Pages))
	for i, p := range ds.Pages {
		plans[i] = PlanCertChanges(p)
	}
	want := summarize(plans)
	var got CertPlanSummary
	for lo := 0; lo < len(plans); lo += 50 {
		hi := lo + 50
		if hi > len(plans) {
			hi = len(plans)
		}
		got.Merge(summarize(plans[lo:hi]))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged summary differs from sequential:\n got %+v\nwant %+v", got, want)
	}
}

// Sharded ProviderUsage accumulators rank identically to the sequential
// aggregation.
func TestProviderUsageMergeMatchesSequential(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 400
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]CertPlan, len(ds.Pages))
	for i, p := range ds.Pages {
		plans[i] = PlanCertChanges(p)
	}
	want := mostEffectiveChanges(ds.Pages, plans, 3, 5)

	merged := NewProviderUsage()
	for lo := 0; lo < len(ds.Pages); lo += 64 {
		hi := lo + 64
		if hi > len(ds.Pages) {
			hi = len(ds.Pages)
		}
		shard := NewProviderUsage()
		for i := lo; i < hi; i++ {
			shard.AddSite(ds.Pages[i].Entries[0].ServerASN, &plans[i])
		}
		merged.Merge(shard)
	}
	if got := merged.Rank(webgen.OrgOf, 3, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("merged rank differs:\n got %+v\nwant %+v", got, want)
	}
}
