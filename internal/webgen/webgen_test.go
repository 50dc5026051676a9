package webgen

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"respectorigin/internal/certs"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
)

func genSmall(t *testing.T, n int) *Dataset {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Sites = n
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t, 100)
	b := genSmall(t, 100)
	if len(a.Pages) != len(b.Pages) || a.Failures != b.Failures {
		t.Fatalf("non-deterministic corpus size: %d/%d vs %d/%d",
			len(a.Pages), a.Failures, len(b.Pages), b.Failures)
	}
	for i := range a.Pages {
		if a.Pages[i].URL != b.Pages[i].URL || len(a.Pages[i].Entries) != len(b.Pages[i].Entries) {
			t.Fatalf("page %d differs", i)
		}
		if a.Pages[i].PLT() != b.Pages[i].PLT() {
			t.Fatalf("page %d PLT differs", i)
		}
	}
}

// ndjsonBytes serializes a dataset the way cmd/crawl does.
func ndjsonBytes(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := corpus.NewWriter(&buf, corpus.FormatNDJSON)
	for _, p := range ds.Pages {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The sharded engine's core guarantee: any worker count produces output
// byte-identical to the sequential path — pages and failures alike.
func TestGenerateWorkersByteIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites = 400
	cfg.Workers = 1
	seq, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqJSON := ndjsonBytes(t, seq)

	for _, w := range []int{4, 16} {
		cfg.Workers = w
		par, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ndjsonBytes(t, par), seqJSON) {
			t.Fatalf("Workers=%d: NDJSON differs from sequential", w)
		}
		if par.Failures != seq.Failures {
			t.Fatalf("Workers=%d: failures %d vs %d", w, par.Failures, seq.Failures)
		}
	}
}

// GenerateStream emits the same pages in the same rank order as
// Generate, for any worker count.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites = 300
	cfg.Workers = 1
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := ndjsonBytes(t, want)

	for _, w := range []int{1, 8} {
		cfg.Workers = w
		var buf bytes.Buffer
		sw := corpus.NewWriter(&buf, corpus.FormatNDJSON)
		res, err := GenerateStream(cfg, sw.Write)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), wantJSON) {
			t.Fatalf("Workers=%d: streamed NDJSON differs", w)
		}
		if res.Pages != len(want.Pages) || res.Failures != want.Failures {
			t.Fatalf("Workers=%d: stream result %d/%d, want %d/%d",
				w, res.Pages, res.Failures, len(want.Pages), want.Failures)
		}
	}
}

// A failing writer aborts the stream with its error and leaves no
// goroutines stuck (the race detector and -timeout cover the latter).
func TestGenerateStreamEmitError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites = 500
	cfg.Workers = 8
	n := 0
	_, err := GenerateStream(cfg, func(p *har.Page) error {
		n++
		if n == 10 {
			return errWriter
		}
		return nil
	})
	if err != errWriter {
		t.Fatalf("err = %v, want errWriter", err)
	}
}

var errWriter = fmt.Errorf("writer failed")

// One-rank shards finish faster than the writer drains them, which is
// where a worker that claimed the next shard to emit used to be left
// without a token while later shards held them all — a deadlock that
// hung about one run in a thousand at this size. A hang here is the
// failure; -timeout reports it.
func TestGenerateStreamTinyShardsDoNotDeadlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites = 25
	cfg.Workers = 4
	for seed := int64(0); seed < 500; seed++ {
		cfg.Seed = seed
		if _, err := GenerateStream(cfg, func(*har.Page) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// A stream whose first emit fails generates little beyond the shards
// already in flight: later shards generate nothing. At 4 000 sites a
// whole corpus is ≈ 13 000 objects (≈ 5 a page); the bound is the
// first shard, one more per worker and each worker's generator, with
// room to spare.
func TestGenerateStreamFailedEmitStopsEarly(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Sites = 4000
		cfg.Workers = workers
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := GenerateStream(cfg, func(*har.Page) error { return errWriter }); err != errWriter {
				t.Fatalf("err = %v, want errWriter", err)
			}
		})
		if allocs > 4000 {
			t.Errorf("workers=%d: a stream that fails at its first emit allocates %.0f objects, want ≤ 4000", workers, allocs)
		} else {
			t.Logf("workers=%d: a stream that fails at its first emit allocates %.0f objects", workers, allocs)
		}
	}
}

// GenerateStream returns only after its workers have: the goroutine
// count is back where it started after a clean stream and after a
// failed one. A goroutine that has returned can take a moment to leave
// the count, hence the wait; one an earlier test left may leave it
// meanwhile, so only a count above the start fails.
func TestGenerateStreamLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.Sites = 600
	cfg.Workers = 4
	for _, failAt := range []int{0, 10} {
		n := 0
		_, err := GenerateStream(cfg, func(*har.Page) error {
			if n++; n == failAt {
				return errWriter
			}
			return nil
		})
		if (err != nil) != (failAt > 0) {
			t.Fatalf("fail at %d: err = %v", failAt, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("fail at %d: %d goroutines after the stream, %d before", failAt, now, before)
		}
	}
}

func TestSuccessRate(t *testing.T) {
	ds := genSmall(t, 2000)
	got := float64(len(ds.Pages)) / 2000
	if got < 0.58 || got > 0.68 {
		t.Errorf("success rate %.3f, want ≈0.635", got)
	}
}

func TestRequestCountDistribution(t *testing.T) {
	ds := genSmall(t, 2000)
	var counts []float64
	for _, p := range ds.Pages {
		counts = append(counts, float64(len(p.Entries)))
	}
	med := measure.Median(counts)
	// Paper: median 81 requests per page.
	if med < 55 || med > 110 {
		t.Errorf("median requests = %.0f, want ≈81", med)
	}
}

func TestDNSTLSMedians(t *testing.T) {
	ds := genSmall(t, 2000)
	var dns, tls []float64
	for _, p := range ds.Pages {
		dns = append(dns, float64(p.DNSQueries()))
		tls = append(tls, float64(p.TLSConnections()))
	}
	mDNS, mTLS := measure.Median(dns), measure.Median(tls)
	// Paper medians: 14 DNS, 16 TLS.
	if mDNS < 8 || mDNS > 20 {
		t.Errorf("median DNS = %.1f, want ≈14", mDNS)
	}
	if mTLS < 8 || mTLS > 22 {
		t.Errorf("median TLS = %.1f, want ≈16", mTLS)
	}
	if mTLS < mDNS-1 {
		t.Errorf("TLS median (%.1f) should not trail DNS median (%.1f)", mTLS, mDNS)
	}
}

func TestPLTDistribution(t *testing.T) {
	ds := genSmall(t, 1000)
	var plt []float64
	for _, p := range ds.Pages {
		plt = append(plt, p.PLT())
	}
	med := measure.Median(plt)
	// Paper: median 5746 ms. Accept a broad band around it.
	if med < 2000 || med > 12000 {
		t.Errorf("median PLT = %.0f ms, want ≈5746", med)
	}
}

func TestASConcentration(t *testing.T) {
	ds := genSmall(t, 2000)
	c := measure.NewCounter()
	for _, p := range ds.Pages {
		for _, e := range p.Entries {
			c.Add(OrgOf(e.ServerASN), 1)
		}
	}
	top := c.Top(10)
	var cum float64
	for _, e := range top {
		cum += e.Share
	}
	// Paper: top-10 ASes serve 63.68% of requests.
	if cum < 45 || cum > 80 {
		t.Errorf("top-10 AS share = %.1f%%, want ≈64%%", cum)
	}
	if top[0].Key != "Google" {
		t.Errorf("top AS = %s, want Google", top[0].Key)
	}
}

func TestUniqueASesPerPage(t *testing.T) {
	ds := genSmall(t, 2000)
	var asns []float64
	single := 0
	for _, p := range ds.Pages {
		seen := map[uint32]bool{}
		for i := range p.Entries {
			seen[p.Entries[i].ServerASN] = true
		}
		n := len(seen)
		asns = append(asns, float64(n))
		if n == 1 {
			single++
		}
	}
	med := measure.Median(asns)
	// Paper: median ≈6 unique ASes; 6.5% single-AS pages.
	if med < 3 || med > 10 {
		t.Errorf("median unique ASes = %.1f, want ≈6", med)
	}
	frac := float64(single) / float64(len(ds.Pages))
	if frac < 0.03 || frac > 0.12 {
		t.Errorf("single-AS fraction = %.3f, want ≈0.065", frac)
	}
}

func TestProtocolMix(t *testing.T) {
	ds := genSmall(t, 1000)
	h2, secure, total := 0, 0, 0
	for _, p := range ds.Pages {
		for _, e := range p.Entries {
			total++
			if e.Protocol == "h2" {
				h2++
			}
			if e.Secure {
				secure++
			}
		}
	}
	if h2Share := 100 * float64(h2) / float64(total); h2Share < 68 || h2Share > 79 {
		t.Errorf("h2 share = %.1f%%, want ≈73.6%%", h2Share)
	}
	if s := float64(secure) / float64(total); s < 0.97 || s > 1 {
		t.Errorf("secure share = %.4f, want ≈0.985", s)
	}
}

func TestSANDistribution(t *testing.T) {
	ds := genSmall(t, 3000)
	var sans []int
	var sizes []float64
	for _, p := range ds.Pages {
		sans = append(sans, len(p.Entries[0].CertSANs))
		sizes = append(sizes, float64(len(p.Entries[0].CertSANs)))
	}
	med := measure.Median(sizes)
	// Paper: median existing SAN size is 2 (Figure 4).
	if med < 2 || med > 3 {
		t.Errorf("median SAN size = %.1f, want 2", med)
	}
	h := measure.Histogram(sans)
	if h[2] < h[3] || h[2] < h[1] {
		t.Errorf("SAN=2 should dominate: %v", map[int]int{1: h[1], 2: h[2], 3: h[3]})
	}
	// Zero-SAN roots come from the 3.5% Table 8 bucket plus the ~1.5%
	// of insecure root loads that carry no certificate at all.
	zeroFrac := float64(h[0]) / float64(len(sans))
	if zeroFrac < 0.015 || zeroFrac > 0.085 {
		t.Errorf("zero-SAN fraction = %.3f, want ≈0.05", zeroFrac)
	}
}

func TestIssuersAssigned(t *testing.T) {
	ds := genSmall(t, 500)
	c := measure.NewCounter()
	for _, p := range ds.Pages {
		for _, e := range p.Entries {
			if e.NewTLS && e.CertIssuer != "" {
				c.Add(e.CertIssuer, 1)
			}
		}
	}
	if c.Total() == 0 {
		t.Fatal("no issuers recorded")
	}
	top := c.Top(1)
	if top[0].Key != "Google Trust Services CA 101" {
		t.Errorf("top issuer = %s", top[0].Key)
	}
}

func TestPopularHostsAppear(t *testing.T) {
	ds := genSmall(t, 1000)
	requested := map[string]bool{}
	for _, p := range ds.Pages {
		for _, e := range p.Entries {
			requested[e.Host] = true
		}
	}
	for _, ph := range []string{"fonts.gstatic.com", "www.google-analytics.com"} {
		if !requested[ph] {
			t.Errorf("popular host %s never requested", ph)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Generate(Config{Sites: 0}); err == nil {
		t.Error("zero sites accepted")
	}
}

// Rank-range runs are the multi-process sharding primitive: generating
// [1,N+1) in one run must equal concatenating independent sub-range
// runs byte for byte, with the same failures.
func TestGenerateStreamRankRangeByteIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites = 301 // deliberately not divisible by the shard count
	full, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullJSON := ndjsonBytes(t, full)

	var buf bytes.Buffer
	var failures int
	bounds := []int{1, 101, 202, cfg.Sites + 1}
	for i := 0; i+1 < len(bounds); i++ {
		shCfg := cfg
		shCfg.RankLo, shCfg.RankHi = bounds[i], bounds[i+1]
		shCfg.Workers = 1 + i%2*3 // mix worker counts across shards
		sw := corpus.NewWriter(&buf, corpus.FormatNDJSON)
		res, err := GenerateStream(shCfg, sw.Write)
		if err != nil {
			t.Fatalf("shard [%d,%d): %v", bounds[i], bounds[i+1], err)
		}
		failures += res.Failures
	}
	if !bytes.Equal(buf.Bytes(), fullJSON) {
		t.Fatal("concatenated rank-range runs differ from the full run")
	}
	if failures != full.Failures {
		t.Fatalf("sharded failures %d, full run %d", failures, full.Failures)
	}
}

func TestGenerateStreamRankRangeValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites = 10
	for _, tc := range [][2]int{{0, 5}, {1, 13}, {7, 3}} {
		cfg.RankLo, cfg.RankHi = tc[0], tc[1]
		if _, err := GenerateStream(cfg, func(*har.Page) error { return nil }); err == nil {
			t.Fatalf("rank range [%d,%d) accepted", tc[0], tc[1])
		}
	}
	// Empty range is legal: zero pages.
	cfg.RankLo, cfg.RankHi = 4, 4
	res, err := GenerateStream(cfg, func(*har.Page) error { t.Fatal("emit on empty range"); return nil })
	if err != nil || res.Pages != 0 {
		t.Fatalf("empty range: %+v, %v", res, err)
	}
}

// TestGenerateStreamAllocBudget holds the generator to its per-page
// budget: a page is its struct, its entries and three pieces of shared
// storage (text, addresses, SANs); everything else is generator scratch,
// and each worker goroutine reuses one generator for every shard it
// claims. Measured 5.2 per page at workers 1, 5.5 at 2 and 5.9 at 4
// (8.0 and 10.7 when every shard built its own generator); a per-shard
// ASN trie adds ≈ 10–15, one fmt.Sprintf per entry URL alone ≈ 340.
func TestGenerateStreamAllocBudget(t *testing.T) {
	const perPageBudget = 6
	for _, a := range Archetypes() {
		for _, workers := range []int{1, 2, 4} {
			cfg := DefaultConfig()
			cfg.Sites = 2000
			cfg.Archetype = a
			cfg.Workers = workers
			pages := 0
			allocs := testing.AllocsPerRun(2, func() {
				res, err := GenerateStream(cfg, func(*har.Page) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
				pages = res.Pages
			})
			if perPage := allocs / float64(pages); perPage > perPageBudget {
				t.Errorf("%s workers=%d: %.1f allocations per page (%.0f over %d pages), want ≤ %d", a, workers, perPage, allocs, pages, perPageBudget)
			} else {
				t.Logf("%s workers=%d: %.1f allocations per page", a, workers, perPage)
			}
		}
	}
}

// TestSanWildcardCoversMatchesCovers holds the byte-span matcher to
// certs.Covers restricted to wildcard SANs: every pair of names as a SAN
// list, against every name as the host.
func TestSanWildcardCoversMatchesCovers(t *testing.T) {
	names := []string{
		"", "*", "*.", "a.", "*..", "a..", "example.com", ".example.com",
		"*.example.com", "www.example.com", "a.b.example.com", "wwwexample.com",
		"*.b.example.com", "x.b.example.com", "*x.example.com", "*.*.example.com",
		"*.co.uk", "example.co.uk",
	}
	g := newGenerator(DefaultConfig())
	spans := make([]span, len(names))
	for i, n := range names {
		spans[i] = g.literal(n)
	}
	for i := range names {
		for j := range names {
			var wild []string
			for _, k := range []int{i, j} {
				if certs.WildcardSuffix(names[k]) != "" {
					wild = append(wild, names[k])
				}
			}
			for h, host := range names {
				got := g.sanWildcardCovers([]span{spans[i], spans[j]}, spans[h])
				if want := certs.Covers(wild, host); got != want {
					t.Errorf("sanWildcardCovers([%q %q], %q) = %v, certs.Covers says %v", names[i], names[j], host, got, want)
				}
			}
		}
	}
}
