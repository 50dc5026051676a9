// Package respectorigin holds the seven ablation benchmarks of DESIGN.md
// §6 (run with `go test -bench=. -benchmem .`): a design choice run both
// ways on one fixed workload, its headline quantity — connections per
// page, chain bytes, inversions — reported through b.ReportMetric. They
// are the only place these experiments run. Timing of the tables,
// figures and hot paths lives in benchmark/ (`go run ./benchmark`) and
// in the per-package bench_test.go files.
package respectorigin

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"respectorigin/internal/browser"
	"respectorigin/internal/certs"
	"respectorigin/internal/dns"
	"respectorigin/internal/hpack"
	"respectorigin/internal/netsim"
	"respectorigin/internal/privacy"
	"respectorigin/internal/report"
	"respectorigin/internal/sched"
	"respectorigin/internal/webgen"
)

// benchCorpus is the generated corpus the two corpus-wide ablations
// (scheduling, privacy) fold over, built once.
var benchCorpus = sync.OnceValue(func() *report.Corpus {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 4000
	ds, err := webgen.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return report.NewCorpusWorkers(ds, 0)
})

// --- Ablation 1: HPACK Huffman on/off (DESIGN.md §6.1) ---

func BenchmarkAblationHuffman(b *testing.B) {
	fields := []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "www.site-123456.example"},
		{Name: ":path", Value: "/assets/js/application-3f2a1b.min.js"},
		{Name: "user-agent", Value: "Mozilla/5.0 (X11; Linux x86_64; rv:96.0) Gecko/20100101 Firefox/96.0"},
		{Name: "accept", Value: "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"},
		{Name: "accept-language", Value: "en-US,en;q=0.5"},
		{Name: "accept-encoding", Value: "gzip, deflate, br"},
		{Name: "referer", Value: "https://www.site-123456.example/"},
		{Name: "cookie", Value: "session=1f4c2d8a9b3e5f7a; theme=dark; consent=granted"},
	}
	for _, huff := range []bool{true, false} {
		name := "off"
		if huff {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var blockLen int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc := hpack.NewEncoder()
				enc.SetHuffman(huff)
				blk := enc.AppendHeaderBlock(nil, fields)
				blockLen = len(blk)
			}
			b.ReportMetric(float64(blockLen), "first-block-bytes")
		})
	}
}

// --- Ablation 2: origin-set validation strictness (DESIGN.md §6.2) ---

func BenchmarkAblationOriginValidation(b *testing.B) {
	envs := newLabEnv()
	for _, strict := range []bool{true, false} {
		name := "san-checked"
		if !strict {
			name = "trust-frame-only"
		}
		b.Run(name, func(b *testing.B) {
			var conns int
			for i := 0; i < b.N; i++ {
				br := browser.New(browser.PolicyFirefoxOrigin)
				if !strict {
					// Trusting the frame alone is modelled by a cert
					// that covers everything.
					envs.sans["www.lab.test"] = []string{"*.lab.test", "third.other.test", "www.lab.test"}
				} else {
					envs.sans["www.lab.test"] = []string{"www.lab.test", "static.lab.test"}
				}
				br.Request(envs, "www.lab.test")
				br.Request(envs, "static.lab.test")
				br.Request(envs, "third.other.test")
				conns = br.TotalNewConn
			}
			b.ReportMetric(float64(conns), "connections-per-page")
		})
	}
}

// --- Ablation 3: coalescing policy comparison (DESIGN.md §6.3) ---

func BenchmarkAblationPolicies(b *testing.B) {
	for _, pol := range []browser.Policy{browser.PolicyChromium, browser.PolicyFirefox, browser.PolicyFirefoxOrigin} {
		b.Run(pol.String(), func(b *testing.B) {
			env := newLabEnv()
			var conns, dnsq int
			for i := 0; i < b.N; i++ {
				br := browser.New(pol)
				for _, h := range []string{"www.lab.test", "static.lab.test", "img.lab.test", "third.other.test"} {
					br.Request(env, h)
				}
				conns, dnsq = br.TotalNewConn, br.TotalDNS
			}
			b.ReportMetric(float64(conns), "connections-per-page")
			b.ReportMetric(float64(dnsq), "dns-queries-per-page")
		})
	}
}

// --- Ablation 4: DNS answer rotation vs Chromium (DESIGN.md §6.4) ---

func BenchmarkAblationDNSRotation(b *testing.B) {
	// Three sharded hostnames served by one load-balanced edge pool
	// {A, B, C}. With stable full answers Chromium coalesces everything
	// (exact-IP match on A); with RFC 1794 single-answer rotation each
	// query lands on a different address and every shard opens its own
	// connection — the §2.3 breakage.
	newRotEnv := func(rotate bool) *labEnvT {
		auth := dns.NewAuthority()
		pool := []netip.Addr{mustAddr("203.0.113.1"), mustAddr("203.0.113.2"), mustAddr("203.0.113.3")}
		siteCert := []string{"www.lab.test", "static.lab.test", "img.lab.test"}
		for _, h := range siteCert {
			auth.AddA(h, pool...)
		}
		auth.Rotation = rotate
		if rotate {
			auth.AnswerLimit = 1
		}
		sans := map[string][]string{}
		for _, h := range siteCert {
			sans[h] = siteCert
		}
		return &labEnvT{res: dns.NewResolver(auth), sans: sans}
	}
	for _, rotate := range []bool{false, true} {
		name := "stable-answers"
		if rotate {
			name = "rotating-answers"
		}
		b.Run(name, func(b *testing.B) {
			var conns int
			for i := 0; i < b.N; i++ {
				env := newRotEnv(rotate)
				br := browser.New(browser.PolicyChromium)
				for _, h := range []string{"www.lab.test", "static.lab.test", "img.lab.test"} {
					br.Request(env, h)
				}
				conns = br.TotalNewConn
			}
			b.ReportMetric(float64(conns), "chromium-connections")
		})
	}
}

// --- Ablation 5: certificate SAN size vs handshake cost (DESIGN.md §6.5) ---

func BenchmarkAblationSANSize(b *testing.B) {
	net := netsim.New(netsim.DefaultParams(), 1)
	ca, err := certs.NewCA("Bench CA")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{2, 10, 100, 500} {
		b.Run(fmt.Sprintf("sans-%d", n), func(b *testing.B) {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("alt-%d.huge-cert.example", i)
			}
			var wire, records int
			for i := 0; i < b.N; i++ {
				leaf, err := ca.Issue(names...)
				if err != nil {
					b.Fatal(err)
				}
				wire = leaf.ChainWireSize()
				records = leaf.TLSRecords()
			}
			b.ReportMetric(float64(wire), "chain-bytes")
			b.ReportMetric(float64(records), "tls-records")
			b.ReportMetric(net.TLSTime(n, records), "handshake-ms")
		})
	}
}

// --- Ablation 6: delivery scheduling (DESIGN.md §6.6, paper §6.1) ---

func BenchmarkAblationScheduling(b *testing.B) {
	c := benchCorpus()
	b.ResetTimer()
	var cmp sched.Comparison
	for i := 0; i < b.N; i++ {
		cmp, _ = c.SchedulingReport()
	}
	b.ReportMetric(float64(cmp.ParallelInversions), "parallel-inversions")
	b.ReportMetric(float64(cmp.CoalescedInversions), "coalesced-inversions")
	b.ReportMetric(cmp.ParallelCriticalMs-cmp.CoalescedCriticalMs, "critical-ms-saved")
}

// --- Ablation 7: privacy scenarios (DESIGN.md §6.7, paper §6.2) ---

func BenchmarkPrivacyScenarios(b *testing.B) {
	c := benchCorpus()
	b.ResetTimer()
	var rows []privacy.CorpusExposure
	for i := 0; i < b.N; i++ {
		rows, _ = c.PrivacyReport()
	}
	b.ReportMetric(rows[0].MedianLeakedHosts, "baseline-leaked-hosts")
	b.ReportMetric(rows[1].MedianLeakedHosts, "coalesced-leaked-hosts")
}

// --- The lab environment ablations 2–4 resolve against ---

type labEnvT struct {
	res     *dns.Resolver
	sans    map[string][]string
	origins map[string][]string
}

func (l *labEnvT) Lookup(host string) ([]netip.Addr, error) { return l.res.LookupA(host) }
func (l *labEnvT) CertSANs(host string, ip netip.Addr) []string {
	if s, ok := l.sans[host]; ok {
		return s
	}
	return []string{host}
}
func (l *labEnvT) OriginSet(host string, ip netip.Addr) []string { return l.origins[host] }
func (l *labEnvT) Reachable(host string, ip netip.Addr) bool     { return true }

func newLabEnv() *labEnvT {
	auth := dns.NewAuthority()
	auth.AddA("www.lab.test", mustAddr("203.0.113.1"), mustAddr("203.0.113.2"))
	auth.AddA("static.lab.test", mustAddr("203.0.113.2"), mustAddr("203.0.113.3"))
	auth.AddA("img.lab.test", mustAddr("203.0.113.1"), mustAddr("203.0.113.3"))
	auth.AddA("third.other.test", mustAddr("198.51.100.9"))
	siteCert := []string{"www.lab.test", "static.lab.test", "img.lab.test", "third.other.test"}
	return &labEnvT{
		res: dns.NewResolver(auth),
		sans: map[string][]string{
			"www.lab.test":    siteCert,
			"static.lab.test": siteCert,
			"img.lab.test":    siteCert,
		},
		origins: map[string][]string{
			"www.lab.test": {"static.lab.test", "img.lab.test", "third.other.test"},
		},
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
