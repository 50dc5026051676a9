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
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"respectorigin/internal/asn"
	"respectorigin/internal/har"
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
	// SuccessRate is the fraction of attempts that load (§3.1: 63.51%).
	SuccessRate float64
	// Net configures the latency model; zero value uses defaults.
	Net netsim.Params
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
	return Config{
		Sites:       20000,
		Seed:        1,
		SuccessRate: 0.6351,
		Net:         netsim.DefaultParams(),
	}
}

// Dataset is a generated corpus.
type Dataset struct {
	Pages    []*har.Page // successful page loads, rank order
	Failures int         // attempts that failed (non-200, CAPTCHA)
	ASDB     *asn.DB     // IP→ASN database covering every generated IP
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
	ds.ASDB = res.ASDB
	return ds, nil
}

// StreamResult summarizes a streamed generation run.
type StreamResult struct {
	Pages    int // successful page loads emitted
	Failures int // attempts that failed (non-200, CAPTCHA)
	ASDB     *asn.DB
}

// GenerateStream builds a corpus across cfg.Workers goroutines and
// invokes emit for every successful page in strict rank order as shards
// complete, without buffering the whole corpus in memory. emit runs on
// the calling goroutine; returning an error aborts generation.
//
// Ranks are split into contiguous shards. Each shard generates with a
// private tail-AS registry and shard-local ASN database; shard
// databases merge into the returned ASDB in shard order, so both the
// page stream and the database are byte-identical for every worker
// count. In-flight shards are bounded, so a slow writer cannot make
// memory grow with corpus size.
func GenerateStream(cfg Config, emit func(*har.Page) error) (*StreamResult, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("webgen: Sites must be positive")
	}
	if cfg.SuccessRate <= 0 || cfg.SuccessRate > 1 {
		cfg.SuccessRate = 0.6351
	}
	if cfg.Net.RTTMs == 0 {
		cfg.Net = netsim.DefaultParams()
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
		db := asn.NewDB()
		registerProviders(db)
		return &StreamResult{ASDB: db}, nil
	}
	workers := parallel.Normalize(cfg.Workers)
	db := asn.NewDB()
	registerProviders(db)
	res := &StreamResult{ASDB: db}

	emitShard := func(sh shardResult) error {
		for _, p := range sh.pages {
			if err := emit(p); err != nil {
				return err
			}
		}
		res.Pages += len(sh.pages)
		res.Failures += sh.failures
		return db.Merge(sh.db)
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
	db       *asn.DB // shard-local tail-AS registrations
}

// genShard generates ranks [lo, hi) with a private generator.
func genShard(cfg Config, lo, hi int) shardResult {
	g := &generator{cfg: cfg, tails: newTailRegistry()}
	var sh shardResult
	for rank := lo; rank < hi; rank++ {
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(rank)))
		if rng.Float64() > cfg.SuccessRate {
			sh.failures++
			continue
		}
		sh.pages = append(sh.pages, g.genPage(rank, rng))
	}
	sh.db = asn.NewDB()
	g.tails.register(sh.db)
	return sh
}

type generator struct {
	cfg   Config
	net   *netsim.Network // per-page latency model, reseeded in genPage
	tails *tailRegistry
}

func registerProviders(db *asn.DB) {
	for _, p := range Providers {
		prefix := netip.MustParsePrefix(p.Prefix)
		db.Add(prefix, asn.ASN(p.ASN), p.Name)
	}
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

// tailAS allocates and returns a long-tail AS for index i via the
// shard's registry; the ASN database is untouched until shard end.
func (g *generator) tailAS(i int) uint32 { return g.tails.use(i) }

// tailRegistry tracks the long-tail ASes one generator shard has
// allocated. It replaces the old pattern of probing the shared ASN
// database (db.Org(...) == "") and mutating it mid-generation — a data
// race the moment two goroutines generate pages, and a latent
// re-registration of the same /16 prefix — with an explicit merge-safe
// set that registers everything at shard end in sorted order.
type tailRegistry struct {
	used map[int]bool
}

func newTailRegistry() *tailRegistry { return &tailRegistry{used: make(map[int]bool)} }

// use marks tail index i as allocated and returns its AS number.
func (t *tailRegistry) use(i int) uint32 {
	t.used[i] = true
	return uint32(TailASNBase + i)
}

// merge folds another registry's allocations in; the union is
// order-independent.
func (t *tailRegistry) merge(o *tailRegistry) {
	for i := range o.used {
		t.used[i] = true
	}
}

// register writes the allocated tail ASes into db in ascending index
// order, so the resulting database is independent of allocation order.
func (t *tailRegistry) register(db *asn.DB) {
	idx := make([]int, 0, len(t.used))
	for i := range t.used {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		db.Add(tailPrefix(i), asn.ASN(TailASNBase+i), fmt.Sprintf("Tail-AS-%d", i))
	}
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
// the remainder self-hosts on a tail AS.
func (g *generator) siteProvider(rng *rand.Rand) (name string, asnum uint32, prefix netip.Prefix) {
	x := rng.Float64() * 100
	acc := 0.0
	for _, p := range Providers {
		acc += p.SiteShare
		if x < acc {
			return p.Name, p.ASN, netip.MustParsePrefix(p.Prefix)
		}
	}
	i := rng.Intn(tailASSpace)
	as := g.tailAS(i)
	return fmt.Sprintf("Tail-AS-%d", i), as, tailPrefix(i)
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

// sanCount samples the root certificate's existing SAN size from the
// Table 8 measured distribution with the Figure 5 long tail.
func sanCount(rng *rand.Rand) int {
	x := rng.Float64() * 100
	// Measured shares from Table 8 (counts / 315796).
	steps := []struct {
		size  int
		share float64
	}{
		{2, 45.29}, {3, 23.15}, {1, 9.59}, {0, 3.52}, {8, 2.64},
		{4, 2.29}, {9, 2.02}, {6, 1.31}, {5, 1.00}, {10, 0.81},
		{7, 0.75}, {11, 0.70}, {12, 0.62}, {13, 0.55}, {14, 0.48},
		{15, 0.42}, {16, 0.37}, {18, 0.33}, {20, 0.29}, {24, 0.26},
	}
	acc := 0.0
	for _, s := range steps {
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
	name     string
	provider string
	asn      uint32
	addrs    []netip.Addr
	reqs     int
	weight   float64 // request-share weight for popular hosts
	// deepDiscovery spreads the host's first reference across the whole
	// dependency depth (sharded and provider-hosted subresources are
	// discovered by CSS/JS at any depth); hosts without it are
	// referenced near the top of the document.
	deepDiscovery bool
}

// genPage generates one site's page load.
func (g *generator) genPage(rank int, rng *rand.Rand) *har.Page {
	// Each page gets its own latency-model stream derived from the page
	// RNG, so page content is a pure function of (seed, rank) and never
	// depends on generation order — the invariant the sharded engine and
	// the Workers-count determinism guarantee rest on.
	g.net = netsim.New(g.cfg.Net, rng.Int63())

	siteHost := fmt.Sprintf("www.site-%d.example", rank)
	apex := fmt.Sprintf("site-%d.example", rank)

	// Sample the root certificate's existing SAN size first: zero-SAN
	// sites are the §4.3 special case that serves its own subresources
	// and has no coalescable hostnames (the paper found only 2 of
	// 11,131 needed changes), so their structure is constrained below.
	nSAN := sanCount(rng)

	provName, provASN, provPrefix := g.siteProvider(rng)
	if nSAN == 0 {
		// Self-hosted on a dedicated tail AS: no same-provider third
		// parties to coalesce.
		i := rng.Intn(tailASSpace)
		as := g.tailAS(i)
		provName = fmt.Sprintf("Tail-AS-%d", i)
		provASN = as
		provPrefix = tailPrefix(i)
	}

	total := reqCount(rank, g.cfg.Sites, rng)

	// --- Assemble the host list ---
	var hosts []hostInfo
	addWeighted := func(name, provider string, asnum uint32, prefix netip.Prefix, reqs int, weight float64) {
		nAddr := 1 + rng.Intn(3)
		addrs := make([]netip.Addr, 0, nAddr)
		for a := 0; a < nAddr; a++ {
			addrs = append(addrs, hostAddr(prefix, hash32(name)+uint32(a)))
		}
		hosts = append(hosts, hostInfo{name: name, provider: provider, asn: asnum, addrs: addrs, reqs: reqs, weight: weight})
	}
	addHost := func(name, provider string, asnum uint32, prefix netip.Prefix, reqs int) {
		addWeighted(name, provider, asnum, prefix, reqs, 0)
	}

	// Root host.
	addHost(siteHost, provName, provASN, provPrefix, 1)

	// 6.5% of pages use a single AS (Figure 1); they get shards but no
	// third parties.
	singleAS := rng.Float64() < 0.065

	// Own sharded subdomains (HTTP/1.1-era practice, §2.1). Zero-SAN
	// sites serve everything from the root host.
	nShards := 0
	if nSAN > 0 && rng.Float64() < 0.88 {
		nShards = 1 + rng.Intn(5)
	}
	shardNames := []string{"static", "img", "cdn", "assets", "media"}
	if g.cfg.Archetype == ArchetypeSharded && nSAN > 0 {
		// The sharding universe: every SAN-carrying site fans out across
		// the full shard set.
		nShards = len(shardNames)
	}
	for s := 0; s < nShards; s++ {
		addHost(shardNames[s]+"."+apex, provName, provASN, provPrefix, 0)
		hosts[len(hosts)-1].deepDiscovery = true
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
			hosts[len(hosts)-1].addrs = hosts[0].addrs
		}
	}

	if !singleAS {
		// Popular third parties (Table 7 / Table 9).
		inclusion := []float64{0.62, 0.66, 0.52, 0.56, 0.30, 0.34, 0.34, 0.34, 0.56, 0.18}
		for i, ph := range PopularHosts {
			if rng.Float64() < inclusion[i] {
				p := ProviderFor(ph.Provider)
				addWeighted(ph.Host, p.Name, p.ASN, netip.MustParsePrefix(p.Prefix), 0, ph.Share)
				hosts[len(hosts)-1].deepDiscovery = true
			}
		}
		// Secondary provider-bound hosts (the rest of Table 2). Unlike
		// the Table 7 hostnames these spread over many distinct names
		// per provider (e.g. per-customer cloudfront.net hosts), so no
		// single hostname ranks highly.
		secondaryInclusion := []float64{0.50, 0.40, 0.35, 0.22, 0.20, 0.15}
		for i, sh := range SecondaryHosts {
			if rng.Float64() < secondaryInclusion[i] {
				p := ProviderFor(sh.Provider)
				name := fmt.Sprintf("n%d.%s", rng.Intn(500), sh.Host)
				addWeighted(name, p.Name, p.ASN, netip.MustParsePrefix(p.Prefix), 0, sh.Share)
			}
		}
		// Same-provider popular hosts (the Table 9 candidates).
		if extras, ok := ProviderPopularHosts[provName]; ok {
			use := map[string]float64{
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
			for _, h := range extras {
				if hostListed(hosts, h) {
					continue
				}
				if rng.Float64() < use[h] {
					p := ProviderFor(provName)
					addHost(h, p.Name, p.ASN, netip.MustParsePrefix(p.Prefix), 0)
					hosts[len(hosts)-1].deepDiscovery = true
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
			as := g.tailAS(idx)
			addHost(fmt.Sprintf("t%d.thirdparty-%d.example", i, idx), fmt.Sprintf("Tail-AS-%d", idx), as, tailPrefix(idx), 0)
		}
	}

	// --- Distribute the request budget across hosts ---
	remaining := total - len(hosts) // every host gets ≥1 request
	if remaining < 0 {
		hosts = hosts[:maxInt(1, total)]
		remaining = 0
	}
	for i := range hosts {
		if i > 0 {
			hosts[i].reqs = 1
		}
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
	rootSANs := buildRootSANs(apex, siteHost, hosts[:1+nShards], nSAN, rng)

	// --- Emit entries ---
	page := &har.Page{
		URL:  "https://" + siteHost + "/",
		Host: siteHost,
		Rank: rank,
	}
	issuerTail := func() string {
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
	issuerFor := func(provider string) string {
		// Providers provision most of their customers' certificates but
		// not all: customers bring their own CAs too (§3.3 notes the
		// ability is limited by management complexity and multi-provider
		// setups).
		if is, ok := issuerForProvider[provider]; ok && rng.Float64() < 0.5 {
			return is
		}
		return issuerTail()
	}

	// Waves model the dependency depth: root(0) → blocking(1) →
	// media/fonts(2) → progressively later resources. Depths are
	// exponentially distributed so a minority of deep chains sets the
	// page load time, as in real dependency graphs.
	const maxWave = 14
	type pending struct {
		host int
		wave int
	}
	// Each host has a discovery wave: the depth at which the page first
	// references it. Spreading discoveries across the whole depth keeps
	// fresh connection setups on the critical path at every level, as
	// real waterfalls show (Figure 2).
	discovery := make([]int, len(hosts))
	for hi := 1; hi < len(hosts); hi++ {
		if hosts[hi].deepDiscovery {
			discovery[hi] = 2 + rng.Intn(maxWave-4)
		} else {
			// Trackers and one-off third parties sit near the top of
			// the document.
			discovery[hi] = 1 + rng.Intn(3)
		}
	}
	var reqs []pending
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
			reqs = append(reqs, pending{host: hi, wave: wave})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].wave < reqs[j].wave })

	waveEnd := make([]float64, maxWave)
	waveEntries := make([][]int, maxWave)
	// waveAnchors are entries that opened a fresh connection; children
	// preferentially depend on them, since new hosts are discovered by
	// the resources that reference them. This is what couples
	// connection setup time to the page's critical path.
	waveAnchors := make([][]int, maxWave)
	freshDone := map[int]bool{}

	// Mid-crawl CDN migration (ArchetypeMigration only): from migWave on,
	// the first-party cluster (root + shards) lives on a new network. A
	// host's first post-migration request re-resolves — a fresh NewDNS
	// entry whose answer set is disjoint from the pre-migration one — so
	// replay clients holding pooled connections to the old home discover
	// them stale. Shards that shared the root's server keep sharing the
	// new one; the cluster moves together, as a CDN switch moves it.
	var migWave int
	var migAddrs [][]netip.Addr
	var migASN uint32
	var migProv string
	migDone := map[int]bool{}
	if g.cfg.Archetype == ArchetypeMigration {
		migWave = 5 + rng.Intn(4)
		mi := rng.Intn(tailASSpace)
		migASN = g.tailAS(mi)
		migProv = fmt.Sprintf("Tail-AS-%d", mi)
		pfx := tailPrefix(mi)
		migAddrs = make([][]netip.Addr, len(hosts))
		for hi := 0; hi <= nShards && hi < len(hosts); hi++ {
			if hi > 0 && len(hosts[hi].addrs) > 0 && len(hosts[0].addrs) > 0 && hosts[hi].addrs[0] == hosts[0].addrs[0] {
				migAddrs[hi] = migAddrs[0]
				continue
			}
			set := make([]netip.Addr, 0, len(hosts[hi].addrs))
			for a := range hosts[hi].addrs {
				set = append(set, hostAddr(pfx, hash32(hosts[hi].name)+uint32(a)))
			}
			migAddrs[hi] = set
		}
	}

	for _, pr := range reqs {
		h := &hosts[pr.host]
		if g.cfg.Archetype == ArchetypeMigration && pr.host <= nShards && pr.wave >= migWave && !migDone[pr.host] {
			migDone[pr.host] = true
			h.addrs = migAddrs[pr.host]
			h.asn = migASN
			h.provider = migProv
			freshDone[pr.host] = false
		}
		e := har.Entry{
			Host:     h.name,
			Method:   "GET",
			Secure:   rng.Float64() < SecureShare,
			ServerIP: h.addrs[0],
			ServerASN: func() uint32 {
				return h.asn
			}(),
			Initiator: -1,
		}
		// Content type.
		ct := pickContentType(rng, pr.wave)
		e.MimeType = ct.Mime
		e.BodySize = int64(float64(ct.MeanBytes) * (0.3 + rng.ExpFloat64()))
		e.RenderBlocking = ct.RenderBlocking && pr.wave <= 1
		e.URL = fmt.Sprintf("https://%s/r/%d%s", h.name, len(page.Entries), extFor(ct.Mime))
		e.Protocol = pickProtocol(rng)
		e.Status = 200

		// Timing assembly.
		var tm har.Timings
		fresh := !freshDone[pr.host]
		if fresh {
			freshDone[pr.host] = true
			e.NewDNS = true
			e.DNSAnswer = h.addrs
			tm.DNS = g.net.DNSTime()
			if e.Secure {
				e.NewTLS = true
				tm.Connect = g.net.ConnectTime()
				sans := 2 + rng.Intn(5)
				if pr.host == 0 {
					sans = len(rootSANs)
					e.CertSANs = rootSANs
				} else {
					e.CertSANs = synthSANs(h.name, sans, rng)
				}
				records := 1
				if sans > 700 {
					records = 1 + sans/700
				}
				tm.SSL = g.net.TLSTime(sans, records)
				e.CertIssuer = issuerFor(h.provider)
			} else {
				tm.Connect = g.net.ConnectTime()
			}
			extraDNS, speculative := g.net.RaceEffects()
			page.ExtraDNS += extraDNS
			if speculative && e.Secure {
				page.ExtraTLS++
			}
		}
		tm.Send = 0.5
		tm.Wait = g.net.WaitTime()
		tm.Receive = g.net.TransferTime(e.BodySize)

		// Start time: after a sampled initiator in the previous wave.
		if pr.wave == 0 {
			e.StartedMs = 0
			tm.Blocked = 0
		} else {
			prevWave := pr.wave - 1
			for prevWave > 0 && len(waveEntries[prevWave]) == 0 {
				prevWave--
			}
			cands := waveEntries[prevWave]
			if len(waveAnchors[prevWave]) > 0 && rng.Float64() < 0.9 {
				cands = waveAnchors[prevWave]
			}
			init := 0
			if len(cands) > 0 {
				init = cands[rng.Intn(len(cands))]
			}
			e.Initiator = init
			parent := page.Entries[init]
			// Parse/dependency CPU time plus queueing behind other
			// requests already in flight on the same connection.
			tm.Blocked = 45 + rng.Float64()*60
			e.StartedMs = parent.EndMs() + rng.Float64()*40
		}
		e.Timings = tm
		idx := len(page.Entries)
		page.Entries = append(page.Entries, e)
		waveEntries[pr.wave] = append(waveEntries[pr.wave], idx)
		if fresh {
			waveAnchors[pr.wave] = append(waveAnchors[pr.wave], idx)
		}
		if end := e.EndMs(); end > waveEnd[pr.wave] {
			waveEnd[pr.wave] = end
		}
	}

	page.OnLoadMs = page.LastEntryEnd()
	dom := waveEnd[1]
	for _, e := range page.Entries {
		if e.RenderBlocking || e.Initiator == -1 {
			if v := e.EndMs(); v > dom {
				dom = v
			}
		}
	}
	page.DOMLoadMs = dom
	if page.DOMLoadMs == 0 || page.DOMLoadMs > page.OnLoadMs {
		page.DOMLoadMs = page.OnLoadMs
	}
	return page
}

// buildRootSANs assembles the root certificate's SAN list of the target
// size: the site's own names first, padded with unrelated names the
// operator accumulated (matching how real multi-tenant certs look).
func buildRootSANs(apex, siteHost string, own []hostInfo, n int, rng *rand.Rand) []string {
	if n == 0 {
		return nil
	}
	var sans []string
	sans = append(sans, siteHost)
	if n >= 2 {
		// Most real certificates pair the www host with a wildcard,
		// which is what leaves the majority of sharded subdomains
		// already covered (§4.3: 62% of sites need no changes).
		if rng.Float64() < 0.70 {
			sans = append(sans, "*."+apex)
		} else {
			sans = append(sans, apex)
		}
	}
	for _, h := range own[1:] {
		if len(sans) >= n {
			break
		}
		if sanWildcardCovers(sans, h.name) {
			continue
		}
		sans = append(sans, h.name)
	}
	for i := 0; len(sans) < n; i++ {
		sans = append(sans, fmt.Sprintf("tenant-%d.%s", rng.Intn(1_000_000), apex))
	}
	return sans[:n]
}

// sanWildcardCovers reports whether an existing wildcard entry already
// covers host.
func sanWildcardCovers(sans []string, host string) bool {
	for _, san := range sans {
		if len(san) > 2 && san[0] == '*' && san[1] == '.' {
			suffix := san[1:]
			if len(host) > len(suffix) && host[len(host)-len(suffix):] == suffix {
				label := host[:len(host)-len(suffix)]
				hasDot := false
				for i := 0; i < len(label); i++ {
					if label[i] == '.' {
						hasDot = true
					}
				}
				if label != "" && !hasDot {
					return true
				}
			}
		}
	}
	return false
}

func synthSANs(host string, n int, rng *rand.Rand) []string {
	sans := []string{host}
	for i := 1; i < n; i++ {
		sans = append(sans, fmt.Sprintf("alt%d.%s", i, host))
	}
	return sans
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

func hostListed(hosts []hostInfo, name string) bool {
	for _, h := range hosts {
		if h.name == name {
			return true
		}
	}
	return false
}

func hash32(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RebuildASDB reconstructs an IP→ASN database from a page corpus that
// was loaded from disk (cmd/crawl output): provider prefixes come from
// the universe table, and any other AS observed in the corpus is
// registered with its generated organization name. This makes a
// deserialized corpus fully usable by the report layer.
func RebuildASDB(pages []*har.Page) *asn.DB {
	db := asn.NewDB()
	for _, p := range Providers {
		db.Add(netip.MustParsePrefix(p.Prefix), asn.ASN(p.ASN), p.Name)
	}
	seen := map[uint32]bool{}
	for _, page := range pages {
		for i := range page.Entries {
			e := &page.Entries[i]
			as := e.ServerASN
			if as == 0 || seen[as] {
				continue
			}
			seen[as] = true
			if _, ok := db.Lookup(e.ServerIP); ok {
				continue
			}
			if as >= TailASNBase {
				idx := int(as - TailASNBase)
				db.Add(tailPrefix(idx), asn.ASN(as), fmt.Sprintf("Tail-AS-%d", idx))
			} else {
				// Unknown AS: register the /16 around the observed IP.
				db.Add(netip.PrefixFrom(e.ServerIP, 16).Masked(), asn.ASN(as), fmt.Sprintf("AS-%d", as))
			}
		}
	}
	return db
}
