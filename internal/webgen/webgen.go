// Package webgen generates the synthetic web corpus the reproduction
// runs on: ranked websites whose page-load timelines, destination
// networks, content types, protocols, certificates and popular
// third-party dependencies follow the marginal distributions the paper
// published for its 315,796-site Tranco crawl (§3.3).
//
// The generator is fully deterministic for a given seed: every site's
// structure derives from its own sub-RNG, so corpora are reproducible
// and scale-free (generate 1,000 or 500,000 sites with the same shape).
package webgen

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"

	"respectorigin/internal/har"
	"respectorigin/internal/lazyrand"
	"respectorigin/internal/netsim"
	"respectorigin/internal/parallel"
)

// Config parameterizes corpus generation.
type Config struct {
	// Sites is the number of ranked sites to attempt (the paper's list
	// had 500K attempts).
	Sites int
	// Seed drives all randomness.
	Seed int64
	// Workers is the number of generation goroutines; values ≤ 0 select
	// runtime.GOMAXPROCS. Every page is a pure function of (Seed, rank),
	// so output is byte-identical for every worker count.
	Workers int
	// Archetype selects the page-structure universe (baseline, sharded,
	// migration). The zero value is the baseline measured-web universe
	// and leaves output byte-identical to a Config without the field.
	Archetype Archetype
	// RankLo and RankHi restrict generation to ranks [RankLo, RankHi).
	// Zero values mean the whole corpus, [1, Sites+1). Pages are pure
	// functions of (Seed, rank, Sites), so a sub-range run emits exactly
	// the pages a full run would for those ranks — the invariant that
	// lets independent OS processes each crawl one shard and have the
	// concatenation reproduce a single-process crawl byte for byte.
	// Sites stays the full corpus size in sharded runs.
	RankLo, RankHi int
}

// DefaultConfig returns a corpus configuration matching the paper's
// collection at a reduced default scale.
func DefaultConfig() Config {
	return Config{Sites: 20000, Seed: 1}
}

// successRate is the fraction of attempts that load (§3.1: 63.51%).
const successRate = 0.6351

// Dataset is a corpus of page loads.
type Dataset struct {
	Pages    []*har.Page // successful page loads, rank order
	Failures int         // attempts that failed (non-200, CAPTCHA)
	// ASDB names the ASes of a corpus imported with its own prefix file
	// (report -har -asn sets an *asn.DB). It is nil for generated
	// corpora, whose AS names are OrgOf.
	ASDB interface{ Org(asn uint32) string }
}

// Generate builds a corpus in memory across cfg.Workers goroutines.
// Output is identical for every worker count; see GenerateStream for
// the streaming form that avoids buffering the whole corpus.
func Generate(cfg Config) (*Dataset, error) {
	ds := &Dataset{}
	res, err := GenerateStream(cfg, func(p *har.Page) error {
		ds.Pages = append(ds.Pages, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.Failures = res.Failures
	return ds, nil
}

// StreamResult summarizes a streamed generation run.
type StreamResult struct {
	Pages    int // successful page loads emitted
	Failures int // attempts that failed (non-200, CAPTCHA)
}

// GenerateStream builds a corpus across cfg.Workers goroutines and
// invokes emit for every successful page in strict rank order as shards
// complete, without buffering the whole corpus in memory. emit runs on
// the calling goroutine; returning an error aborts generation.
//
// Ranks are split into contiguous shards, each with a private
// generator; every page is a pure function of (Seed, rank, Sites), so
// the page stream is byte-identical for every worker count. In-flight
// shards are bounded, so a slow writer cannot make memory grow with
// corpus size.
func GenerateStream(cfg Config, emit func(*har.Page) error) (*StreamResult, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("webgen: Sites must be positive")
	}
	if err := cfg.Archetype.Validate(); err != nil {
		return nil, err
	}
	rankLo, rankHi := cfg.RankLo, cfg.RankHi
	if rankLo == 0 && rankHi == 0 {
		rankLo, rankHi = 1, cfg.Sites+1
	}
	if rankLo < 1 || rankHi > cfg.Sites+1 || rankLo > rankHi {
		return nil, fmt.Errorf("webgen: rank range [%d,%d) outside [1,%d)", rankLo, rankHi, cfg.Sites+1)
	}
	nranks := rankHi - rankLo
	if nranks == 0 {
		// Empty shard (e.g. more shards than sites): a legal no-op run.
		return &StreamResult{}, nil
	}
	workers := parallel.Normalize(cfg.Workers)
	res := &StreamResult{}

	emitShard := func(sh shardResult) error {
		for _, p := range sh.pages {
			if err := emit(p); err != nil {
				return err
			}
		}
		res.Pages += len(sh.pages)
		res.Failures += sh.failures
		return nil
	}

	if workers == 1 {
		return res, emitShard(genShard(cfg, rankLo, rankHi))
	}

	span := (nranks + workers*8 - 1) / (workers * 8)
	if span < 1 {
		span = 1
	}
	if span > 256 {
		span = 256
	}
	nshards := (nranks + span - 1) / span
	results := make([]chan shardResult, nshards)
	for i := range results {
		results[i] = make(chan shardResult, 1)
	}
	// tokens bounds generated-but-unemitted shards; done aborts workers
	// when the writer fails. A worker takes its token before it claims a
	// shard: claimed the other way round, the worker holding the next
	// shard to emit can be left waiting for a token while every token
	// sits on a later shard the writer cannot reach yet.
	tokens := make(chan struct{}, workers*2)
	done := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case tokens <- struct{}{}:
				case <-done:
					return
				}
				s := int(next.Add(1)) - 1
				if s >= nshards {
					return
				}
				lo := rankLo + s*span
				hi := lo + span
				if hi > rankHi {
					hi = rankHi
				}
				results[s] <- genShard(cfg, lo, hi)
			}
		}()
	}
	var emitErr error
	for s := 0; s < nshards && emitErr == nil; s++ {
		emitErr = emitShard(<-results[s])
		<-tokens
	}
	close(done)
	wg.Wait()
	if emitErr != nil {
		return nil, emitErr
	}
	return res, nil
}

// shardResult is one contiguous rank block's output.
type shardResult struct {
	pages    []*har.Page // successful loads, rank order
	failures int
}

// genShard generates ranks [lo, hi) with a private generator.
func genShard(cfg Config, lo, hi int) shardResult {
	g := newGenerator(cfg)
	sh := shardResult{pages: make([]*har.Page, 0, hi-lo)}
	for rank := lo; rank < hi; rank++ {
		// Re-seeding restarts the stream a fresh source would produce.
		g.rng.Seed(cfg.Seed*1_000_003 + int64(rank))
		if g.rng.Float64() > successRate {
			sh.failures++
			continue
		}
		sh.pages = append(sh.pages, g.genPage(rank))
	}
	return sh
}

// maxWave bounds the dependency depth of a page; see genPage.
const maxWave = 14

// generator produces the pages of one shard. It owns the working
// storage of a page in the making: the buffers below are reused from
// page to page, and a finished page copies out of them exactly what it
// keeps — its entries, one string holding all of its text, one slice of
// addresses and one of SAN strings.
type generator struct {
	cfg Config
	rng *rand.Rand      // page stream, reseeded per rank
	net *netsim.Network // per-page latency model, reseeded in genPage

	text  []byte       // every string of the page under construction
	addrs []netip.Addr // every DNS answer set
	sans  []span       // every certificate SAN, as spans of text

	hosts     []hostInfo
	reqs      []pending // in host order
	byWave    []pending // reqs ordered by wave, host order kept within one
	discovery []int
	urls      []span      // per entry
	opened    []freshConn // entries that opened a connection
	freshDone []bool      // per host
	migDone   []bool
	migAddrs  []span
	// waveEntries lists each wave's entries; waveAnchors those that opened
	// a fresh connection.
	waveEntries [maxWave][]int
	waveAnchors [maxWave][]int
}

func newGenerator(cfg Config) *generator {
	return &generator{
		cfg: cfg,
		rng: lazyrand.New(0),
		net: netsim.New(netsim.DefaultParams(), 0),
	}
}

// span is a run of generator.text (a string to be) or generator.addrs
// (an answer set).
type span struct{ off, n int32 }

// pending is one request waiting to be emitted.
type pending struct {
	host int
	wave int
}

// freshConn records what an entry that opened a connection keeps of the
// generator's buffers, resolved once the page is complete.
type freshConn struct {
	entry int
	addrs span // DNS answer set
	sans  span // run of generator.sans; empty without a certificate
}

// begin and since bracket a string written to g.text piece by piece
// with str, num and sub.
func (g *generator) begin() int32 { return int32(len(g.text)) }

func (g *generator) since(off int32) span { return span{off, int32(len(g.text)) - off} }

func (g *generator) str(s string) { g.text = append(g.text, s...) }

func (g *generator) num(v int) { g.text = strconv.AppendInt(g.text, int64(v), 10) }

func (g *generator) sub(s span) { g.text = append(g.text, g.bytes(s)...) }

func (g *generator) bytes(s span) []byte { return g.text[s.off : s.off+s.n] }

// literal copies s into g.text.
func (g *generator) literal(s string) span {
	off := g.begin()
	g.str(s)
	return g.since(off)
}

// tailASSpace is the number of distinct long-tail ASes the generator
// draws from (the paper saw 13,316 distinct ASes; /16-per-AS addressing
// bounds us to 8,000 — wide enough that intra-page collisions vanish).
const tailASSpace = 8000

// tailPrefix returns tail AS i's /16 allocation, drawn from octets
// 160..191 to stay clear of every provider prefix.
func tailPrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(160 + i/250), byte(i % 250), 0, 0}), 16)
}

// tailAS returns the AS number of long-tail AS i.
func tailAS(i int) uint32 { return uint32(TailASNBase + i) }

// OrgOf returns the organization name of an AS of the generated
// universe. The name is a function of the number alone — a provider's
// name, "Tail-AS-<i>" for long-tail AS i, "AS-<n>" for any other — so a
// corpus needs no database beside its pages: every entry carries its
// ServerASN. AS 0 (no origin AS known) has no name.
func OrgOf(asn uint32) string {
	for i := range Providers {
		if Providers[i].ASN == asn {
			return Providers[i].Name
		}
	}
	switch {
	case asn == 0:
		return ""
	case asn >= TailASNBase:
		return "Tail-AS-" + strconv.Itoa(int(asn-TailASNBase))
	}
	return "AS-" + strconv.Itoa(int(asn))
}

// hostAddr deterministically assigns host IPs inside a provider prefix.
func hostAddr(prefix netip.Prefix, h uint32) netip.Addr {
	a := prefix.Addr().As4()
	if prefix.Bits() <= 16 {
		a[2] = byte(h >> 8)
		a[3] = byte(h)
	} else {
		a[3] = byte(h)
	}
	if a[3] == 0 {
		a[3] = 1
	}
	return netip.AddrFrom4(a)
}

// siteProvider picks the hosting provider for a site (Table 9 shares);
// the remainder self-hosts on a tail AS, for which prov is nil.
func (g *generator) siteProvider() (prov *Provider, asnum uint32, prefix netip.Prefix) {
	x := g.rng.Float64() * 100
	acc := 0.0
	for i := range Providers {
		p := &Providers[i]
		acc += p.SiteShare
		if x < acc {
			return p, p.ASN, providerPrefixes[p.Name]
		}
	}
	return g.tailProvider()
}

// tailProvider draws a long-tail AS to host on.
func (g *generator) tailProvider() (prov *Provider, asnum uint32, prefix netip.Prefix) {
	i := g.rng.Intn(tailASSpace)
	return nil, tailAS(i), tailPrefix(i)
}

// reqCount samples per-page request totals: lognormal with median 81,
// mean ≈113, scaled slightly down with rank (Table 1: 89 → 78).
func reqCount(rank, totalSites int, rng *rand.Rand) int {
	mu := math.Log(81)
	sigma := 0.8
	bucketFactor := 1.09 - 0.13*float64(rank)/float64(totalSites) // 1.09 → 0.96
	v := math.Exp(mu+sigma*rng.NormFloat64()) * bucketFactor
	n := int(v)
	if n < 3 {
		n = 3
	}
	if n > 2500 {
		n = 2500
	}
	return n
}

// sanSizeSteps are the measured root-certificate SAN sizes and their
// shares (Table 8, counts / 315796).
var sanSizeSteps = []struct {
	size  int
	share float64
}{
	{2, 45.29}, {3, 23.15}, {1, 9.59}, {0, 3.52}, {8, 2.64},
	{4, 2.29}, {9, 2.02}, {6, 1.31}, {5, 1.00}, {10, 0.81},
	{7, 0.75}, {11, 0.70}, {12, 0.62}, {13, 0.55}, {14, 0.48},
	{15, 0.42}, {16, 0.37}, {18, 0.33}, {20, 0.29}, {24, 0.26},
}

// sanCount samples the root certificate's existing SAN size from the
// Table 8 measured distribution with the Figure 5 long tail.
func sanCount(rng *rand.Rand) int {
	x := rng.Float64() * 100
	acc := 0.0
	for _, s := range sanSizeSteps {
		acc += s.share
		if x < acc {
			return s.size
		}
	}
	// Long tail: pareto-ish between 25 and ~2000; ~0.07% above 250.
	u := rng.Float64()
	size := int(25 * math.Pow(1-u, -0.55))
	if size > 2000 {
		size = 2000
	}
	return size
}

type hostInfo struct {
	name   span      // of generator.text
	prov   *Provider // hosting provider; nil on a long-tail AS
	asn    uint32
	addrs  span // of generator.addrs
	reqs   int
	weight float64 // request-share weight for popular hosts
	// deepDiscovery spreads the host's first reference across the whole
	// dependency depth (sharded and provider-hosted subresources are
	// discovered by CSS/JS at any depth); hosts without it are
	// referenced near the top of the document.
	deepDiscovery bool
}

// addHost appends a host with one request and one to three addresses
// inside prefix, and returns it.
func (g *generator) addHost(name span, prov *Provider, asnum uint32, prefix netip.Prefix, weight float64) *hostInfo {
	nAddr := 1 + g.rng.Intn(3)
	off := len(g.addrs)
	h := hash32(g.bytes(name))
	for a := 0; a < nAddr; a++ {
		g.addrs = append(g.addrs, hostAddr(prefix, h+uint32(a)))
	}
	g.hosts = append(g.hosts, hostInfo{
		name: name, prov: prov, asn: asnum, addrs: span{int32(off), int32(nAddr)}, reqs: 1, weight: weight,
	})
	return &g.hosts[len(g.hosts)-1]
}

var shardNames = []string{"static", "img", "cdn", "assets", "media"}

// popularInclusion and secondaryInclusion are the per-page inclusion
// probabilities of PopularHosts and SecondaryHosts, by index.
var (
	popularInclusion   = []float64{0.62, 0.66, 0.52, 0.56, 0.30, 0.34, 0.34, 0.34, 0.56, 0.18}
	secondaryInclusion = []float64{0.50, 0.40, 0.35, 0.22, 0.20, 0.15}
)

// providerHostUse is how often a site on a provider uses each of the
// provider's popular hostnames (ProviderPopularHosts).
var providerHostUse = map[string]float64{
	"cdnjs.cloudflare.com":     0.1621,
	"sni.cloudflaressl.com":    0.1258,
	"ajax.cloudflare.com":      0.1128,
	"cdn.jsdelivr.net":         0.0869,
	"d1.cloudfront.net":        0.2003,
	"script.hotjar.com":        0.1477,
	"assets.s3.amazonaws.com":  0.1201,
	"www.google-analytics.com": 0.8568,
	"www.googletagmanager.com": 0.8272,
	"fonts.gstatic.com":        0.50,
	"fonts.googleapis.com":     0.50,
}

// genPage generates one site's page load from g.rng, freshly seeded for
// the rank.
func (g *generator) genPage(rank int) *har.Page {
	rng := g.rng
	// Each page gets its own latency-model stream derived from the page
	// RNG, so page content is a pure function of (seed, rank) and never
	// depends on generation order — the invariant the sharded engine and
	// the Workers-count determinism guarantee rest on.
	g.net.Reseed(rng.Int63())

	g.text, g.addrs, g.sans, g.hosts = g.text[:0], g.addrs[:0], g.sans[:0], g.hosts[:0]
	pageURL := g.begin()
	g.str("https://")
	siteHost := g.begin()
	g.str("www.site-")
	g.num(rank)
	g.str(".example")
	site := g.since(siteHost)
	apex := span{site.off + 4, site.n - 4} // without the "www."
	g.str("/")
	page := g.since(pageURL)

	// Sample the root certificate's existing SAN size first: zero-SAN
	// sites are the §4.3 special case that serves its own subresources
	// and has no coalescable hostnames (the paper found only 2 of
	// 11,131 needed changes), so their structure is constrained below.
	nSAN := sanCount(rng)

	prov, provASN, provPrefix := g.siteProvider()
	if nSAN == 0 {
		// Self-hosted on a dedicated tail AS: no same-provider third
		// parties to coalesce.
		prov, provASN, provPrefix = g.tailProvider()
	}

	total := reqCount(rank, g.cfg.Sites, rng)

	// --- Assemble the host list ---
	g.addHost(site, prov, provASN, provPrefix, 0) // the root host

	// 6.5% of pages use a single AS (Figure 1); they get shards but no
	// third parties.
	singleAS := rng.Float64() < 0.065

	// Own sharded subdomains (HTTP/1.1-era practice, §2.1). Zero-SAN
	// sites serve everything from the root host.
	nShards := 0
	if nSAN > 0 && rng.Float64() < 0.88 {
		nShards = 1 + rng.Intn(5)
	}
	if g.cfg.Archetype == ArchetypeSharded && nSAN > 0 {
		// The sharding universe: every SAN-carrying site fans out across
		// the full shard set.
		nShards = len(shardNames)
	}
	for s := 0; s < nShards; s++ {
		off := g.begin()
		g.str(shardNames[s])
		g.str(".")
		g.sub(apex)
		h := g.addHost(g.since(off), prov, provASN, provPrefix, 0)
		h.deepDiscovery = true
		if g.cfg.Archetype == ArchetypeSharded {
			// Sharded shards always get their own server addresses (the
			// per-name hash already spread them): no same-server overlap,
			// so IP coalescing finds nothing and only ORIGIN + a covering
			// certificate can merge the shards back.
			continue
		}
		// Some shards live on the same server as the root host: these
		// are the "missed opportunities" ideal IP coalescing recovers
		// (§4.2).
		if rng.Float64() < 0.65 {
			h.addrs = g.hosts[0].addrs
		}
	}

	if !singleAS {
		// Popular third parties (Table 7 / Table 9).
		for i, ph := range PopularHosts {
			if rng.Float64() < popularInclusion[i] {
				p := ProviderFor(ph.Provider)
				g.addHost(g.literal(ph.Host), p, p.ASN, providerPrefixes[p.Name], ph.Share).deepDiscovery = true
			}
		}
		// Secondary provider-bound hosts (the rest of Table 2). Unlike
		// the Table 7 hostnames these spread over many distinct names
		// per provider (e.g. per-customer cloudfront.net hosts), so no
		// single hostname ranks highly.
		for i, sh := range SecondaryHosts {
			if rng.Float64() < secondaryInclusion[i] {
				p := ProviderFor(sh.Provider)
				off := g.begin()
				g.str("n")
				g.num(rng.Intn(500))
				g.str(".")
				g.str(sh.Host)
				g.addHost(g.since(off), p, p.ASN, providerPrefixes[p.Name], sh.Share)
			}
		}
		// Same-provider popular hosts (the Table 9 candidates).
		if prov != nil {
			for _, h := range ProviderPopularHosts[prov.Name] {
				if g.hostListed(h) {
					continue
				}
				if rng.Float64() < providerHostUse[h] {
					g.addHost(g.literal(h), prov, prov.ASN, providerPrefixes[prov.Name], 0).deepDiscovery = true
				}
			}
		}
		// Long-tail third parties on their own ASes: median ~4 extra
		// ASes so unique-AS-per-page lands near the paper's median 6.
		nTail := int(math.Exp(math.Log(2.6) + 0.95*rng.NormFloat64()))
		if nTail > 60 {
			nTail = 60
		}
		for i := 0; i < nTail; i++ {
			idx := rng.Intn(tailASSpace)
			as := tailAS(idx)
			off := g.begin()
			g.str("t")
			g.num(i)
			g.str(".thirdparty-")
			g.num(idx)
			g.str(".example")
			g.addHost(g.since(off), nil, as, tailPrefix(idx), 0)
		}
	}
	hosts := g.hosts

	// --- Distribute the request budget across hosts ---
	remaining := total - len(hosts) // every host gets ≥1 request
	if remaining < 0 {
		hosts = hosts[:max(1, total)]
		remaining = 0
	}
	// Root and shards absorb most requests (first-party content);
	// popular hosts draw requests proportional to their share weight.
	var weightSum float64
	for i := range hosts {
		weightSum += hosts[i].weight
	}
	for r := 0; r < remaining; r++ {
		x := rng.Float64()
		switch {
		case x < 0.50: // own hosts
			hosts[rng.Intn(1+nShards)].reqs++
		case x < 0.78 && weightSum > 0: // weighted popular hosts
			w := rng.Float64() * weightSum
			for i := range hosts {
				w -= hosts[i].weight
				if w <= 0 {
					hosts[i].reqs++
					break
				}
			}
		default:
			hosts[rng.Intn(len(hosts))].reqs++
		}
	}

	// --- Root certificate SANs (Figure 4 measured distribution) ---
	rootSANs := g.buildRootSANs(apex, site, hosts[:1+nShards], nSAN)

	// --- Emit entries ---
	// Waves model the dependency depth: root(0) → blocking(1) →
	// media/fonts(2) → progressively later resources. Depths are
	// exponentially distributed so a minority of deep chains sets the
	// page load time, as in real dependency graphs.
	//
	// Each host has a discovery wave: the depth at which the page first
	// references it. Spreading discoveries across the whole depth keeps
	// fresh connection setups on the critical path at every level, as
	// real waterfalls show (Figure 2).
	discovery := zeroed(&g.discovery, len(hosts))
	for hi := 1; hi < len(hosts); hi++ {
		if hosts[hi].deepDiscovery {
			discovery[hi] = 2 + rng.Intn(maxWave-4)
		} else {
			// Trackers and one-off third parties sit near the top of
			// the document.
			discovery[hi] = 1 + rng.Intn(3)
		}
	}
	g.reqs = g.reqs[:0]
	var perWave [maxWave + 1]int // perWave[w+1] counts wave w, then prefix-summed
	for hi := range hosts {
		for k := 0; k < hosts[hi].reqs; k++ {
			wave := 0
			if hi != 0 || k != 0 {
				wave = discovery[hi] + int(rng.ExpFloat64()*1.5)
				if wave < 1 {
					wave = 1
				}
				if wave > maxWave-1 {
					wave = maxWave - 1
				}
			}
			g.reqs = append(g.reqs, pending{host: hi, wave: wave})
			perWave[wave+1]++
		}
	}
	// Order by wave, keeping host order within a wave: a counting sort.
	for w := 1; w <= maxWave; w++ {
		perWave[w] += perWave[w-1]
	}
	reqs := zeroed(&g.byWave, len(g.reqs))
	for _, pr := range g.reqs {
		reqs[perWave[pr.wave]] = pr
		perWave[pr.wave]++
	}

	var waveEnd [maxWave]float64
	for w := range g.waveEntries {
		g.waveEntries[w] = g.waveEntries[w][:0]
		g.waveAnchors[w] = g.waveAnchors[w][:0]
	}
	freshDone := zeroed(&g.freshDone, len(hosts))

	// Mid-crawl CDN migration (ArchetypeMigration only): from migWave on,
	// the first-party cluster (root + shards) lives on a new network. A
	// host's first post-migration request re-resolves — a fresh NewDNS
	// entry whose answer set is disjoint from the pre-migration one — so
	// replay clients holding pooled connections to the old home discover
	// them stale. Shards that shared the root's server keep sharing the
	// new one; the cluster moves together, as a CDN switch moves it.
	var migWave int
	var migASN uint32
	migDone := zeroed(&g.migDone, len(hosts))
	migAddrs := zeroed(&g.migAddrs, len(hosts))
	if g.cfg.Archetype == ArchetypeMigration {
		migWave = 5 + rng.Intn(4)
		mi := rng.Intn(tailASSpace)
		migASN = tailAS(mi)
		pfx := tailPrefix(mi)
		for hi := 0; hi <= nShards && hi < len(hosts); hi++ {
			if hi > 0 && g.addrs[hosts[hi].addrs.off] == g.addrs[hosts[0].addrs.off] {
				migAddrs[hi] = migAddrs[0]
				continue
			}
			off := len(g.addrs)
			h := hash32(g.bytes(hosts[hi].name))
			for a := 0; a < int(hosts[hi].addrs.n); a++ {
				g.addrs = append(g.addrs, hostAddr(pfx, h+uint32(a)))
			}
			migAddrs[hi] = span{int32(off), hosts[hi].addrs.n}
		}
	}

	entries := make([]har.Entry, len(reqs))
	g.urls = g.urls[:0]
	g.opened = g.opened[:0]
	extraDNS, extraTLS := 0, 0
	for idx, pr := range reqs {
		h := &hosts[pr.host]
		if g.cfg.Archetype == ArchetypeMigration && pr.host <= nShards && pr.wave >= migWave && !migDone[pr.host] {
			migDone[pr.host] = true
			h.addrs = migAddrs[pr.host]
			h.asn = migASN
			h.prov = nil
			freshDone[pr.host] = false
		}
		e := &entries[idx]
		e.Method = "GET"
		e.Secure = rng.Float64() < SecureShare
		e.ServerIP = g.addrs[h.addrs.off]
		e.ServerASN = h.asn
		e.Initiator = -1
		// Content type.
		ct := pickContentType(rng, pr.wave)
		e.MimeType = ct.Mime
		e.BodySize = int64(float64(ct.MeanBytes) * (0.3 + rng.ExpFloat64()))
		e.RenderBlocking = ct.RenderBlocking && pr.wave <= 1
		off := g.begin()
		g.str("https://")
		g.sub(h.name)
		g.str("/r/")
		g.num(idx)
		g.str(extFor(ct.Mime))
		g.urls = append(g.urls, g.since(off))
		e.Protocol = pickProtocol(rng)
		e.Status = 200

		// Timing assembly.
		tm := &e.Timings
		fresh := !freshDone[pr.host]
		if fresh {
			freshDone[pr.host] = true
			e.NewDNS = true
			conn := freshConn{entry: idx, addrs: h.addrs}
			tm.DNS = g.net.DNSTime()
			if e.Secure {
				e.NewTLS = true
				tm.Connect = g.net.ConnectTime()
				sans := 2 + rng.Intn(5)
				if pr.host == 0 {
					sans = int(rootSANs.n)
					conn.sans = rootSANs
				} else {
					conn.sans = g.synthSANs(h.name, sans)
				}
				records := 1
				if sans > 700 {
					records = 1 + sans/700
				}
				tm.SSL = g.net.HandshakeTime(netsim.Setup{SANs: sans, Records: records})
				e.CertIssuer = issuerFor(h.prov, rng)
			} else {
				tm.Connect = g.net.ConnectTime()
			}
			g.opened = append(g.opened, conn)
			raceDNS, speculative := g.net.RaceEffects()
			extraDNS += raceDNS
			if speculative && e.Secure {
				extraTLS++
			}
		}
		tm.Send = 0.5
		tm.Wait = g.net.WaitTime()
		tm.Receive = g.net.TransferTime(e.BodySize)

		// Start time: after a sampled initiator in the previous wave.
		if pr.wave > 0 {
			prevWave := pr.wave - 1
			for prevWave > 0 && len(g.waveEntries[prevWave]) == 0 {
				prevWave--
			}
			cands := g.waveEntries[prevWave]
			if len(g.waveAnchors[prevWave]) > 0 && rng.Float64() < 0.9 {
				// Children preferentially depend on entries that opened a
				// fresh connection, since new hosts are discovered by the
				// resources that reference them. This is what couples
				// connection setup time to the page's critical path.
				cands = g.waveAnchors[prevWave]
			}
			init := 0
			if len(cands) > 0 {
				init = cands[rng.Intn(len(cands))]
			}
			e.Initiator = init
			// Parse/dependency CPU time plus queueing behind other
			// requests already in flight on the same connection.
			tm.Blocked = 45 + rng.Float64()*60
			e.StartedMs = entries[init].EndMs() + rng.Float64()*40
		}
		g.waveEntries[pr.wave] = append(g.waveEntries[pr.wave], idx)
		if fresh {
			g.waveAnchors[pr.wave] = append(g.waveAnchors[pr.wave], idx)
		}
		if end := e.EndMs(); end > waveEnd[pr.wave] {
			waveEnd[pr.wave] = end
		}
	}

	// The page keeps one string, one address slice and one SAN slice;
	// every name, URL, answer set and SAN list is a piece of those.
	text := string(g.text)
	str := func(s span) string { return text[s.off : s.off+s.n] }
	addrs := append([]netip.Addr(nil), g.addrs...)
	sans := make([]string, len(g.sans))
	for i, s := range g.sans {
		sans[i] = str(s)
	}
	for i := range entries {
		entries[i].Host = str(hosts[reqs[i].host].name)
		entries[i].URL = str(g.urls[i])
	}
	for _, conn := range g.opened {
		e := &entries[conn.entry]
		a, s := conn.addrs, conn.sans
		e.DNSAnswer = addrs[a.off : a.off+a.n : a.off+a.n]
		if s.n > 0 {
			e.CertSANs = sans[s.off : s.off+s.n : s.off+s.n]
		}
	}
	p := &har.Page{
		URL: str(page), Host: str(site), Rank: rank, Entries: entries,
		ExtraDNS: extraDNS, ExtraTLS: extraTLS,
	}
	p.OnLoadMs = p.LastEntryEnd()
	dom := waveEnd[1]
	for i := range entries {
		e := &entries[i]
		if e.RenderBlocking || e.Initiator == -1 {
			if v := e.EndMs(); v > dom {
				dom = v
			}
		}
	}
	p.DOMLoadMs = dom
	if p.DOMLoadMs == 0 || p.DOMLoadMs > p.OnLoadMs {
		p.DOMLoadMs = p.OnLoadMs
	}
	return p
}

// zeroed resizes *s to n zero elements, reusing its storage, and
// returns it.
func zeroed[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
		clear(*s)
	}
	return *s
}

// issuerFor draws the issuer of a certificate served from prov (nil for
// a long-tail AS). Providers provision most of their customers'
// certificates but not all: customers bring their own CAs too (§3.3
// notes the ability is limited by management complexity and
// multi-provider setups).
func issuerFor(prov *Provider, rng *rand.Rand) string {
	if prov != nil {
		if is, ok := issuerForProvider[prov.Name]; ok && rng.Float64() < 0.5 {
			return is
		}
	}
	x := rng.Float64() * 100
	acc := 0.0
	for _, is := range Issuers {
		acc += is.Share
		if x < acc {
			return is.Name
		}
	}
	return Issuers[len(Issuers)-1].Name
}

// buildRootSANs assembles the root certificate's SAN list of the target
// size: the site's own names first, padded with unrelated names the
// operator accumulated (matching how real multi-tenant certs look). The
// list is a run of g.sans.
func (g *generator) buildRootSANs(apex, siteHost span, own []hostInfo, n int) span {
	if n == 0 {
		return span{}
	}
	lo := len(g.sans)
	g.sans = append(g.sans, siteHost)
	if n >= 2 {
		// Most real certificates pair the www host with a wildcard,
		// which is what leaves the majority of sharded subdomains
		// already covered (§4.3: 62% of sites need no changes).
		if g.rng.Float64() < 0.70 {
			off := g.begin()
			g.str("*.")
			g.sub(apex)
			g.sans = append(g.sans, g.since(off))
		} else {
			g.sans = append(g.sans, apex)
		}
	}
	for _, h := range own[1:] {
		if len(g.sans)-lo >= n {
			break
		}
		if g.sanWildcardCovers(g.sans[lo:], h.name) {
			continue
		}
		g.sans = append(g.sans, h.name)
	}
	for len(g.sans)-lo < n {
		off := g.begin()
		g.str("tenant-")
		g.num(g.rng.Intn(1_000_000))
		g.str(".")
		g.sub(apex)
		g.sans = append(g.sans, g.since(off))
	}
	return span{int32(lo), int32(n)}
}

// sanWildcardCovers reports whether an existing wildcard entry already
// covers host.
func (g *generator) sanWildcardCovers(sans []span, hostName span) bool {
	host := g.bytes(hostName)
	for _, s := range sans {
		san := g.bytes(s)
		if len(san) > 2 && san[0] == '*' && san[1] == '.' {
			suffix := san[1:]
			if len(host) > len(suffix) && bytes.Equal(host[len(host)-len(suffix):], suffix) {
				label := host[:len(host)-len(suffix)]
				if len(label) > 0 && bytes.IndexByte(label, '.') < 0 {
					return true
				}
			}
		}
	}
	return false
}

// synthSANs writes the n-name certificate of a third-party host — the
// host and its alt1…alt(n-1) siblings — as a run of g.sans.
func (g *generator) synthSANs(host span, n int) span {
	lo := len(g.sans)
	g.sans = append(g.sans, host)
	for i := 1; i < n; i++ {
		off := g.begin()
		g.str("alt")
		g.num(i)
		g.str(".")
		g.sub(host)
		g.sans = append(g.sans, g.since(off))
	}
	return span{int32(lo), int32(len(g.sans) - lo)}
}

func pickContentType(rng *rand.Rand, wave int) ContentType {
	x := rng.Float64() * 100
	acc := 0.0
	for _, ct := range ContentTypes {
		acc += ct.Share
		if x < acc {
			return ct
		}
	}
	return ContentTypes[len(ContentTypes)-1]
}

func pickProtocol(rng *rand.Rand) string {
	x := rng.Float64() * 100
	acc := 0.0
	for _, p := range Protocols {
		acc += p.Share
		if x < acc {
			return p.Name
		}
	}
	return "unknown"
}

func extFor(mime string) string {
	switch mime {
	case "application/javascript", "text/javascript", "application/x-javascript":
		return ".js"
	case "text/css":
		return ".css"
	case "image/jpeg":
		return ".jpg"
	case "image/png":
		return ".png"
	case "image/gif":
		return ".gif"
	case "image/webp":
		return ".webp"
	case "font/woff2":
		return ".woff2"
	case "text/html":
		return ".html"
	case "application/json":
		return ".json"
	default:
		return ""
	}
}

// hostListed reports whether the page under construction already has a
// host called name.
func (g *generator) hostListed(name string) bool {
	for i := range g.hosts {
		if string(g.bytes(g.hosts[i].name)) == name {
			return true
		}
	}
	return false
}

func hash32(s []byte) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
