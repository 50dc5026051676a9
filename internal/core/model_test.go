package core

import (
	"net/netip"
	"testing"

	"respectorigin/internal/har"
	"respectorigin/internal/measure"
	"respectorigin/internal/webgen"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

// modelPage builds the Figure 2 example: a base page plus five
// subresources, four on the same CDN (coalescable) and one on an
// unrelated tracker AS.
func modelPage() *har.Page {
	const cdnASN = 13335
	const trackerASN = 64500
	mk := func(start float64, host string, asn uint32, addr string, init int, dns, conn, ssl float64) har.Entry {
		return har.Entry{
			StartedMs: start, URL: "https://" + host + "/", Host: host,
			Method: "GET", Protocol: "h2", Status: 200, Secure: true,
			ServerIP: ip(addr), ServerASN: asn, Initiator: init,
			NewDNS: dns > 0, NewTLS: ssl > 0,
			Timings: har.Timings{DNS: dns, Connect: conn, SSL: ssl, Send: 1, Wait: 30, Receive: 10},
		}
	}
	p := &har.Page{
		URL: "https://www.example.com/", Host: "www.example.com",
		Entries: []har.Entry{
			mk(0, "www.example.com", cdnASN, "203.0.113.1", -1, 20, 25, 30),
			// Two coalescable requests starting "at the same time" with
			// different DNS times (the conservative-min example).
			mk(120, "static.example.com", cdnASN, "203.0.113.2", 0, 20, 25, 30),
			mk(130, "assets.cdnhost.com", cdnASN, "203.0.113.3", 0, 35, 25, 30),
			// A later coalescable font request.
			mk(300, "fonts.cdnhost.com", cdnASN, "203.0.113.4", 2, 15, 25, 30),
			// Not coalescable: different AS.
			mk(310, "analytics.tracker.com", trackerASN, "198.51.100.9", 1, 18, 25, 30),
			// Same-IP repeat of the tracker (IP-coalescable).
			mk(420, "analytics.tracker.com", trackerASN, "198.51.100.9", 4, 18, 25, 30),
		},
	}
	p.Entries[0].CertSANs = []string{"www.example.com", "example.com"}
	p.OnLoadMs = p.LastEntryEnd()
	return p
}

// coalescable is Timeline.Coalescable for one page.
func coalescable(p *har.Page, mode Mode, cdnASN uint32) []bool {
	var t Timeline
	t.Load(p)
	return t.Coalescable(mode, cdnASN)
}

// pltImprovement returns a page's measured and reconstructed PLT.
func pltImprovement(p *har.Page, mode Mode, cdnASN uint32) (measured, reconstructed float64) {
	var t Timeline
	t.Load(p)
	return p.PLT(), t.PLT(mode, cdnASN)
}

func TestCoalescableOriginMode(t *testing.T) {
	p := modelPage()
	c := coalescable(p, ModeOrigin, 0)
	want := []bool{false, true, true, true, false, true}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("entry %d coalescable = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestCoalescableIPMode(t *testing.T) {
	p := modelPage()
	c := coalescable(p, ModeIP, 0)
	// Only the repeated tracker request shares an exact IP.
	want := []bool{false, false, false, false, false, true}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("entry %d coalescable = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestCoalescableCDNMode(t *testing.T) {
	p := modelPage()
	c := coalescable(p, ModeOriginCDN, 13335)
	want := []bool{false, true, true, true, false, false}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("entry %d coalescable = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestRootNeverCoalescable(t *testing.T) {
	p := modelPage()
	for _, mode := range []Mode{ModeIP, ModeOrigin, ModeOriginCDN} {
		if coalescable(p, mode, 13335)[0] {
			t.Errorf("root coalescable under %v", mode)
		}
	}
}

func TestReconstructRemovesSetupPhases(t *testing.T) {
	p := modelPage()
	q := Reconstruct(p, ModeOrigin, 0)
	// Coalesced entries lose Connect and SSL.
	for _, i := range []int{1, 2, 3, 5} {
		tm := q.Entries[i].Timings
		if tm.Connect != 0 || tm.SSL != 0 {
			t.Errorf("entry %d kept connect/ssl: %+v", i, tm)
		}
		if q.Entries[i].NewTLS {
			t.Errorf("entry %d still marked NewTLS", i)
		}
	}
	// Root unchanged.
	if q.Entries[0].Timings != p.Entries[0].Timings {
		t.Error("root timings modified")
	}
	// Non-coalescable tracker keeps its phases.
	if q.Entries[4].Timings.SSL == 0 {
		t.Error("non-coalescable entry lost SSL phase")
	}
}

func TestReconstructConservativeMinDNS(t *testing.T) {
	p := modelPage()
	q := Reconstruct(p, ModeOrigin, 0)
	// Entries 1 (DNS 20) and 2 (DNS 35) start within the same window:
	// the minimum (20) is subtracted from both, retaining the 15 ms
	// difference on entry 2 (§4.1).
	if q.Entries[1].Timings.DNS != 0 {
		t.Errorf("entry 1 DNS = %v, want 0", q.Entries[1].Timings.DNS)
	}
	if q.Entries[2].Timings.DNS != 15 {
		t.Errorf("entry 2 DNS = %v, want 15", q.Entries[2].Timings.DNS)
	}
	// Entry 3 is alone in its window: its whole DNS time is removed.
	if q.Entries[3].Timings.DNS != 0 {
		t.Errorf("entry 3 DNS = %v, want 0", q.Entries[3].Timings.DNS)
	}
}

func TestReconstructImprovesPLT(t *testing.T) {
	p := modelPage()
	for _, mode := range []Mode{ModeIP, ModeOrigin, ModeOriginCDN} {
		measured, rec := pltImprovement(p, mode, 13335)
		if rec > measured {
			t.Errorf("%v: reconstruction worsened PLT: %v -> %v", mode, measured, rec)
		}
	}
	// ORIGIN must beat IP here: four same-AS requests vs one same-IP.
	_, recIP := pltImprovement(p, ModeIP, 0)
	_, recOrigin := pltImprovement(p, ModeOrigin, 0)
	if recOrigin >= recIP {
		t.Errorf("origin PLT %v not better than IP PLT %v", recOrigin, recIP)
	}
}

func TestReconstructPreservesDependencyGaps(t *testing.T) {
	p := modelPage()
	q := Reconstruct(p, ModeOrigin, 0)
	// Child 3's gap after parent 2 must be preserved exactly.
	origGap := p.Entries[3].StartedMs - p.Entries[2].EndMs()
	newGap := q.Entries[3].StartedMs - q.Entries[2].EndMs()
	if diff := origGap - newGap; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("gap changed: %v -> %v", origGap, newGap)
	}
}

func TestCountPage(t *testing.T) {
	p := modelPage()
	pc := countPage(p)
	if pc.MeasuredDNS != 6 || pc.MeasuredTLS != 6 {
		t.Errorf("measured = %+v", pc)
	}
	// 5 unique IPs; 3 services (CDN AS, tracker AS... tracker secure
	// AS-coalesces too) → services: as:13335, as:64500 → 2.
	if pc.IdealIP != 5 {
		t.Errorf("ideal IP = %d, want 5", pc.IdealIP)
	}
	if pc.IdealOrigin != 2 {
		t.Errorf("ideal origin = %d, want 2", pc.IdealOrigin)
	}
}

func TestCountPageOrderingInvariant(t *testing.T) {
	// On any generated page: ideal origin ≤ ideal IP ≤ measured TLS.
	cfg := webgen.DefaultConfig()
	cfg.Sites = 300
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Pages {
		pc := countPage(p)
		if pc.IdealOrigin > pc.IdealIP {
			t.Fatalf("page %s: origin %d > ip %d", p.Host, pc.IdealOrigin, pc.IdealIP)
		}
		if pc.IdealIP > pc.MeasuredTLS+pc.MeasuredDNS {
			t.Fatalf("page %s: ideal IP %d exceeds measured activity", p.Host, pc.IdealIP)
		}
	}
}

func TestReconstructMonotoneOnCorpus(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 200
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Pages {
		for _, mode := range []Mode{ModeIP, ModeOrigin} {
			q := Reconstruct(p, mode, 0)
			if q.PLT() > p.PLT()+1e-6 {
				t.Fatalf("page %s mode %v: PLT worsened %v -> %v", p.Host, mode, p.PLT(), q.PLT())
			}
		}
	}
}

// TestHeadlineNumbers reproduces the paper's §7 headline: ORIGIN
// coalescing reduces median DNS queries by ~64% and TLS connections
// (certificate validations) by ~67-69%, down to a median of ~5 each
// (§4.2, Figure 3).
func TestHeadlineNumbers(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 3000
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mDNS, mTLS, idealIP, idealOrigin []float64
	for _, p := range ds.Pages {
		pc := countPage(p)
		mDNS = append(mDNS, float64(pc.MeasuredDNS))
		mTLS = append(mTLS, float64(pc.MeasuredTLS))
		idealIP = append(idealIP, float64(pc.IdealIP))
		idealOrigin = append(idealOrigin, float64(pc.IdealOrigin))
	}
	medDNS := measure.Median(mDNS)
	medTLS := measure.Median(mTLS)
	medIP := measure.Median(idealIP)
	medOrigin := measure.Median(idealOrigin)

	t.Logf("medians: DNS=%.1f TLS=%.1f idealIP=%.1f idealOrigin=%.1f", medDNS, medTLS, medIP, medOrigin)

	// Paper: measured 14/16, ideal IP 13, ideal ORIGIN 5.
	if medOrigin > 9 {
		t.Errorf("ideal origin median = %.1f, want ≈5", medOrigin)
	}
	dnsRed := measure.ReductionPct(medDNS, medOrigin)
	tlsRed := measure.ReductionPct(medTLS, medOrigin)
	if dnsRed < 40 || dnsRed > 80 {
		t.Errorf("DNS reduction = %.1f%%, paper ≈64%%", dnsRed)
	}
	if tlsRed < 45 || tlsRed > 85 {
		t.Errorf("TLS reduction = %.1f%%, paper ≈67%%", tlsRed)
	}
	// IP-only coalescing is a small improvement (paper: ~7% DNS, ~19% TLS).
	ipRedTLS := measure.ReductionPct(medTLS, medIP)
	if ipRedTLS < 2 || ipRedTLS > 45 {
		t.Errorf("IP TLS reduction = %.1f%%, paper ≈19%%", ipRedTLS)
	}
	// Ordering: origin wins over IP.
	if medOrigin >= medIP {
		t.Errorf("origin median %.1f not better than IP median %.1f", medOrigin, medIP)
	}
}

func TestModeStrings(t *testing.T) {
	if ModeIP.String() != "ideal-ip" || ModeOrigin.String() != "ideal-origin" ||
		ModeOriginCDN.String() != "cdn-origin" || Mode(9).String() != "unknown" {
		t.Error("mode strings")
	}
}
