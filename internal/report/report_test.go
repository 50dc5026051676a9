package report

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"respectorigin/internal/cdn"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
	"respectorigin/internal/webgen"
)

func testCorpus(t *testing.T, sites int) *Corpus {
	t.Helper()
	cfg := webgen.DefaultConfig()
	cfg.Sites = sites
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewCorpusWorkers(ds, 0)
}

func TestTable1(t *testing.T) {
	c := testCorpus(t, 1000)
	rows, txt := c.Table1(5)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Success
		if r.MedianReqs <= 0 || r.MedianPLT <= 0 {
			t.Errorf("empty bucket row: %+v", r)
		}
	}
	if total != len(c.DS.Pages) {
		t.Errorf("bucket totals %d != pages %d", total, len(c.DS.Pages))
	}
	if !strings.Contains(txt, "Table 1") {
		t.Error("missing title")
	}
	// Popularity trend: top bucket sees more requests than the bottom.
	if rows[0].MedianReqs <= rows[4].MedianReqs-15 {
		t.Errorf("request trend inverted: %v vs %v", rows[0].MedianReqs, rows[4].MedianReqs)
	}
}

func TestTable2TopASes(t *testing.T) {
	c := testCorpus(t, 1000)
	top, txt := c.Table2(10)
	if len(top) != 10 {
		t.Fatalf("top = %d", len(top))
	}
	if !strings.Contains(top[0].Key, "AS15169") {
		t.Errorf("top AS = %s, want Google AS15169", top[0].Key)
	}
	var cum float64
	for _, e := range top {
		cum += e.Share
	}
	if cum < 45 || cum > 80 {
		t.Errorf("top-10 share = %.1f%%, paper 63.68%%", cum)
	}
	_ = txt
}

// Table 2 names only the ASes that can print: the n largest counts
// and every AS tied with row n. Ties break by name, and "AS10 …" sorts
// before "AS9 …", so a cut by number alone would print AS9 where AS10
// belongs. Rows and shares must be those of ranking every named AS.
func TestTable2NamesBoundaryTies(t *testing.T) {
	counts := map[uint32]int{1: 9, 2: 8, 9: 5, 10: 5, 11: 5, 100: 5, 12: 3, 3: 1}
	var entries []har.Entry
	all := measure.NewCounter()
	for as, n := range counts {
		for range n {
			entries = append(entries, har.Entry{ServerASN: as})
		}
		all.Add(fmt.Sprintf("AS%d %s", as, webgen.OrgOf(as)), int64(n))
	}
	c := NewCorpusWorkers(&webgen.Dataset{Pages: []*har.Page{{Rank: 1, Entries: entries}}}, 1)
	const title = "Table 2: top destination ASes for resource requests"
	for n := 0; n <= len(counts)+1; n++ {
		rows, txt := c.Table2(n)
		if want := all.Top(n); !reflect.DeepEqual(rows, want) {
			t.Errorf("n=%d: rows %v, want %v", n, rows, want)
		}
		if want := all.TableString(title, n); txt != want {
			t.Errorf("n=%d:\n%s\nwant\n%s", n, txt, want)
		}
	}
	if rows, _ := c.Table2(3); rows[2].Key != "AS10 AS-10" {
		t.Errorf("row 3 = %q, want the tie broken by name to AS10", rows[2].Key)
	}
}

func TestTable3Protocols(t *testing.T) {
	c := testCorpus(t, 500)
	counts, secure, txt := c.Table3()
	if counts["h2"] == 0 || counts["http/1.1"] == 0 {
		t.Error("protocol counts empty")
	}
	if secure < 97 || secure > 100 {
		t.Errorf("secure share = %.2f", secure)
	}
	if !strings.Contains(txt, "Secure share") {
		t.Error("missing secure share")
	}
}

func TestTable4Issuers(t *testing.T) {
	c := testCorpus(t, 500)
	top, _ := c.Table4(10)
	if len(top) == 0 {
		t.Fatal("no issuers")
	}
	if top[0].Key != "Google Trust Services CA 101" {
		t.Errorf("top issuer = %s", top[0].Key)
	}
}

func TestTable5ContentTypes(t *testing.T) {
	c := testCorpus(t, 500)
	top, _ := c.Table5(12)
	found := false
	for _, e := range top[:3] {
		if e.Key == "application/javascript" {
			found = true
		}
	}
	if !found {
		t.Errorf("javascript not in top-3: %v", top[:3])
	}
}

func TestTable6PerASTypes(t *testing.T) {
	c := testCorpus(t, 500)
	rows, txt := c.Table6(3, 4)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if len(r.Types) != 4 {
			t.Errorf("row %d has %d types", i, len(r.Types))
		}
	}
	if !strings.Contains(txt, "Google") {
		t.Error("Google missing from Table 6")
	}
}

func TestTable7Hostnames(t *testing.T) {
	c := testCorpus(t, 1000)
	top, _ := c.Table7(10)
	names := map[string]bool{}
	for _, e := range top {
		names[e.Key] = true
	}
	if !names["fonts.gstatic.com"] && !names["www.google-analytics.com"] {
		t.Errorf("popular hostnames missing from top-10: %v", top)
	}
}

func TestTable8And9(t *testing.T) {
	c := testCorpus(t, 1000)
	rows, txt := c.Table8(10)
	if len(rows) != 10 {
		t.Fatalf("table 8 rows = %d", len(rows))
	}
	if rows[0].MeasuredSize != 2 {
		t.Errorf("most common measured SAN size = %d, paper 2", rows[0].MeasuredSize)
	}
	if !strings.Contains(txt, "Rank") {
		t.Error("table 8 format")
	}
	changes, txt9 := c.Table9(3, 5)
	if len(changes) != 3 || changes[0].Provider != "Cloudflare" {
		t.Errorf("table 9 providers: %+v", changes)
	}
	if !strings.Contains(txt9, "Cloudflare") {
		t.Error("table 9 format")
	}
}

func TestFigure1(t *testing.T) {
	c := testCorpus(t, 800)
	hist, cdf, txt := c.Figure1()
	if len(hist) == 0 || len(cdf) == 0 {
		t.Fatal("empty figure 1")
	}
	if cdf[len(cdf)-1].P != 1 {
		t.Error("CDF does not reach 1")
	}
	if !strings.Contains(txt, "median") {
		t.Error("figure 1 format")
	}
}

func TestFigure2(t *testing.T) {
	c := testCorpus(t, 50)
	txt := c.Figure2(70)
	if !strings.Contains(txt, "Time saved") {
		t.Error("figure 2 missing time saved")
	}
}

func TestFigure3Ordering(t *testing.T) {
	c := testCorpus(t, 1000)
	_, txt := c.Figure3()
	for _, series := range []string{"measured DNS", "measured TLS", "ideal IP", "ideal ORIGIN"} {
		if !strings.Contains(txt, series) {
			t.Errorf("figure 3 has no %s CDF", series)
		}
	}
}

func TestFigure4And5(t *testing.T) {
	c := testCorpus(t, 1000)
	ex, id, txt := c.Figure4()
	if len(ex) == 0 || len(id) == 0 {
		t.Fatal("empty figure 4")
	}
	if !strings.Contains(txt, "median shift") {
		t.Error("figure 4 format")
	}
	pts, txt5 := c.Figure5()
	if len(pts) != len(c.DS.Pages) {
		t.Fatalf("figure 5 points = %d", len(pts))
	}
	// Ranked by existing size descending.
	for i := 1; i < len(pts); i++ {
		if pts[i].Existing > pts[i-1].Existing {
			t.Fatal("figure 5 not sorted")
		}
	}
	if !strings.Contains(txt5, "largest ideal certificate") {
		t.Error("figure 5 format")
	}
}

func TestFigure9Model(t *testing.T) {
	c := testCorpus(t, 400)
	d, txt := c.Figure9Model(13335)
	if d.MedianOrigin > d.MedianMeasured {
		t.Errorf("ORIGIN PLT median %.0f worse than measured %.0f", d.MedianOrigin, d.MedianMeasured)
	}
	if d.MedianIP > d.MedianMeasured {
		t.Errorf("IP PLT median worse than measured")
	}
	// ORIGIN improves more than CDN-only ORIGIN; the CDN-only line is a
	// modest improvement (paper: ~1.5% vs ~27%).
	if d.MedianOrigin > d.MedianCDNOrigin {
		t.Errorf("full ORIGIN (%.0f) worse than CDN-only (%.0f)", d.MedianOrigin, d.MedianCDNOrigin)
	}
	if !strings.Contains(txt, "deployment CDN") {
		t.Error("figure 9 format")
	}
}

func TestHeadlineReport(t *testing.T) {
	c := testCorpus(t, 1500)
	h, txt := c.Headline()
	if h.MedianIdealOrigin >= h.MedianMeasuredTLS {
		t.Errorf("headline: origin %.0f not better than measured %.0f",
			h.MedianIdealOrigin, h.MedianMeasuredTLS)
	}
	if h.DNSReductionPct < 30 || h.TLSReductionPct < 40 {
		t.Errorf("reductions too small: %+v", h)
	}
	if !strings.Contains(txt, "paper") {
		t.Error("headline format")
	}
}

func TestDeploymentFigures(t *testing.T) {
	d := NewDeployment(800, 3)
	f6 := d.Figure6()
	if !strings.Contains(f6, d.CDN.ThirdParty) || !strings.Contains(f6, d.CDN.ControlName) {
		t.Error("figure 6 missing domains")
	}

	ctl, exp, txt := d.Figure7(cdn.PhaseIP)
	if exp.frac(0) <= ctl.frac(0) {
		t.Errorf("7a: experiment zero-share %.2f not above control %.2f", exp.frac(0), ctl.frac(0))
	}
	if !strings.Contains(txt, "7a") {
		t.Error("figure 7a format")
	}

	ctl2, exp2, txt2 := d.Figure7(cdn.PhaseOrigin)
	if exp2.frac(0) <= ctl2.frac(0) {
		t.Error("7b: experiment not better than control")
	}
	if !strings.Contains(txt2, "7b") {
		t.Error("figure 7b format")
	}

	_, ptxt := d.PassiveIP(3)
	if !strings.Contains(ptxt, "reduction") {
		t.Error("passive format")
	}

	c, e, txt8 := d.Figure8(14, 4, 10)
	if len(c.Values) != 14 || len(e.Values) != 14 {
		t.Fatal("figure 8 series length")
	}
	during := e.Mean(4, 10) / nz(c.Mean(4, 10))
	if during > 0.75 {
		t.Errorf("figure 8 deployment ratio = %.2f", during)
	}
	if !strings.Contains(txt8, "deployment") {
		t.Error("figure 8 format")
	}
}

func TestFigure9Deployment(t *testing.T) {
	d := NewDeployment(1000, 5)
	data, txt := d.Figure9Deployment(5)
	if data.MedianControl <= 0 || data.MedianExperiment <= 0 {
		t.Fatal("empty figure 9 deployment")
	}
	// The paper's key qualitative result: coalescing is 'no worse' and
	// at most a minor improvement at a single CDN.
	if data.ImprovementPct < -4 || data.ImprovementPct > 12 {
		t.Errorf("deployment PLT improvement = %.1f%%, paper ≈1%%", data.ImprovementPct)
	}
	if !strings.Contains(txt, "no worse") {
		t.Error("figure 9 deployment format")
	}
}

func TestPrivacyReportIntegration(t *testing.T) {
	c := testCorpus(t, 300)
	rows, txt := c.PrivacyReport()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].MedianLeakedHosts >= rows[0].MedianLeakedHosts {
		t.Error("coalescing did not reduce leaked hosts")
	}
	if !strings.Contains(txt, "Privacy exposure") {
		t.Error("privacy report format")
	}
}

func TestSchedulingReportIntegration(t *testing.T) {
	c := testCorpus(t, 100)
	cmp, txt := c.SchedulingReport()
	if cmp.CoalescedInversions != 0 {
		t.Errorf("coalesced inversions = %d", cmp.CoalescedInversions)
	}
	if cmp.ParallelInversions == 0 {
		t.Error("parallel produced no inversions")
	}
	if !strings.Contains(txt, "Scheduling comparison") {
		t.Error("scheduling report format")
	}
}

func TestPolicyComparisonCrossValidatesModel(t *testing.T) {
	c := testCorpus(t, 800)
	stats, txt := c.PolicyComparison()
	if len(stats) != 3 {
		t.Fatalf("stats = %d", len(stats))
	}
	chromium, firefox, origin := stats[0], stats[1], stats[2]
	// Ordering: ORIGIN < firefox <= chromium.
	if origin.MedianConnections >= firefox.MedianConnections {
		t.Errorf("origin conns %.0f not below firefox %.0f",
			origin.MedianConnections, firefox.MedianConnections)
	}
	if firefox.MedianConnections > chromium.MedianConnections {
		t.Errorf("firefox conns %.0f above chromium %.0f",
			firefox.MedianConnections, chromium.MedianConnections)
	}
	// The executable ORIGIN policy should land near the analytic
	// Figure 3 prediction (ideal origin median).
	h, _ := c.Headline()
	diff := origin.MedianConnections - h.MedianIdealOrigin
	if diff < -2.5 || diff > 2.5 {
		t.Errorf("policy origin median %.0f far from model prediction %.0f",
			origin.MedianConnections, h.MedianIdealOrigin)
	}
	if !strings.Contains(txt, "cross-validation") {
		t.Error("policy report format")
	}
}

// Every table and figure rendering must be byte-identical between a
// sequential corpus and a parallel one over the same dataset — the
// report-side half of the determinism contract (the webgen side is
// TestGenerateWorkersByteIdentical).
func TestReportParallelMatchesSequential(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 600
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewCorpusWorkers(ds, 1)
	par := NewCorpusWorkers(ds, 8)

	render := func(c *Corpus) map[string]string {
		out := map[string]string{}
		_, out["table1"] = c.Table1(5)
		_, out["table2"] = c.Table2(10)
		_, _, out["table3"] = c.Table3()
		_, out["table4"] = c.Table4(10)
		_, out["table5"] = c.Table5(10)
		_, out["table6"] = c.Table6(3, 3)
		_, out["table7"] = c.Table7(10)
		_, out["table8"] = c.Table8(10)
		_, out["table9"] = c.Table9(5, 5)
		_, _, out["figure1"] = c.Figure1()
		out["figure2"] = c.Figure2(60)
		_, out["figure3"] = c.Figure3()
		_, _, out["figure4"] = c.Figure4()
		_, out["figure5"] = c.Figure5()
		_, out["figure9"] = c.Figure9Model(13335)
		_, out["headline"] = c.Headline()
		_, out["policies"] = c.PolicyComparison()
		return out
	}
	a, b := render(seq), render(par)
	for name, want := range a {
		if got := b[name]; got != want {
			t.Errorf("%s differs between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s", name, want, got)
		}
	}
}
