package scenario

import (
	"fmt"
	"slices"

	"respectorigin/internal/browser"
	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/har"
	"respectorigin/internal/netsim"
	"respectorigin/internal/parallel"
	"respectorigin/internal/webgen"
)

// Config parameterizes a matrix sweep. Zero-value slices select the
// full built-in axis.
type Config struct {
	// Seed and Sites parameterize the per-archetype corpora. Sites is
	// the attempt count per archetype (the usual success rate applies).
	Seed  int64
	Sites int
	// Workers fans the cell cross-product out; ≤ 0 selects GOMAXPROCS.
	// Output is byte-identical for every worker count.
	Workers int

	Personas   []Persona
	Archetypes []webgen.Archetype
	Profiles   []netsim.Profile
	Transports []DNSTransport
}

// DNSTransport is the resolver transport a cell is priced under. It is
// a pricing axis only: a replay resolves the same names whatever the
// transport, and setupMs charges the difference.
type DNSTransport uint8

// Resolver transports.
const (
	// transportDo53 is classic UDP/TCP port-53 resolution.
	transportDo53 DNSTransport = iota
	// transportDoH is RFC 8484 DNS-over-HTTPS resolution.
	transportDoH
)

func (t DNSTransport) String() string {
	switch t {
	case transportDo53:
		return "do53"
	case transportDoH:
		return "doh"
	default:
		return "unknown"
	}
}

// DefaultConfig returns the full built-in matrix at a small corpus
// scale.
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		Sites:      150,
		Personas:   defaultPersonas(),
		Archetypes: webgen.Archetypes(),
		Profiles:   netsim.Profiles(),
		Transports: []DNSTransport{transportDo53, transportDoH},
	}
}

// Cell is one point of the cross-product: one persona replaying one
// archetype's corpus under one network profile and resolver transport.
type Cell struct {
	Persona   string `json:"persona"`
	Archetype string `json:"archetype"`
	Profile   string `json:"profile"`
	DNS       string `json:"dns"`

	Pages    int `json:"pages"`
	Requests int `json:"requests"`

	// Connection economy.
	Conns     int `json:"conns"`          // fresh connections opened by requests
	Preconns  int `json:"preconns"`       // speculative sockets opened
	Wasted    int `json:"wasted_sockets"` // speculative sockets never ridden
	Evicted   int `json:"evicted"`        // connections closed by cap pressure
	Reused    int `json:"reused"`         // requests satisfied on a pooled connection
	Coalesced int `json:"coalesced"`      // reuses that crossed hostnames
	ViaOrigin int `json:"via_origin"`     // coalesced via an ORIGIN frame
	Got421    int `json:"got_421"`        // reuse attempts bounced with 421

	// Resolution and pricing.
	DNSQueries int     `json:"dns_queries"` // wire queries (cache hits excluded)
	SetupMs    float64 `json:"setup_ms"`    // modelled DNS + connection setup cost
}

// CoalescePct is the share of requests satisfied by cross-host
// coalescing.
func (c Cell) CoalescePct() float64 {
	if c.Requests == 0 {
		return 0
	}
	return 100 * float64(c.Coalesced) / float64(c.Requests)
}

// Result is a completed sweep: cells in cross-product order
// (archetype → persona → profile → transport).
type Result struct {
	Cells []Cell
}

// Run executes the sweep. The archetype corpora are generated
// concurrently, one archetype per worker. Every persona replays the
// read-only page slice of an archetype once, and the replay's totals
// are priced under each profile × transport. The (archetype × persona)
// replays fan out through internal/parallel, each worker reusing one
// replayer, and their cells are emitted in fixed cross-product order,
// so the result — and every byte derived from it — is identical at any
// worker count. Run returns only after every goroutine it started has
// finished.
func Run(cfg Config) (*Result, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("scenario: Sites must be positive")
	}
	if len(cfg.Personas) == 0 {
		cfg.Personas = defaultPersonas()
	}
	if len(cfg.Archetypes) == 0 {
		cfg.Archetypes = webgen.Archetypes()
	}
	if len(cfg.Profiles) == 0 {
		cfg.Profiles = netsim.Profiles()
	}
	if len(cfg.Transports) == 0 {
		cfg.Transports = []DNSTransport{transportDo53, transportDoH}
	}
	for _, a := range cfg.Archetypes {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	for _, pr := range cfg.Profiles {
		if err := pr.Params.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: profile %q: %w", pr.Name, err)
		}
	}

	corpora := make([][]*har.Page, len(cfg.Archetypes))
	errs := parallel.Map(len(cfg.Archetypes), cfg.Workers, func(i int) (err error) {
		corpora[i], err = archetypeCorpus(cfg, cfg.Archetypes[i])
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	perGroup := len(cfg.Profiles) * len(cfg.Transports)
	groups := parallel.MapWith(len(cfg.Archetypes)*len(cfg.Personas), cfg.Workers, newReplayer, func(r *replayer, g int) []Cell {
		ai := g / len(cfg.Personas)
		t := r.replay(corpora[ai], cfg.Personas[g%len(cfg.Personas)])
		t.Archetype = cfg.Archetypes[ai].String()
		cells := make([]Cell, 0, perGroup)
		for _, pr := range cfg.Profiles {
			for _, tr := range cfg.Transports {
				cells = append(cells, price(t, pr, tr))
			}
		}
		return cells
	})
	cells := make([]Cell, 0, len(groups)*perGroup)
	for _, g := range groups {
		cells = append(cells, g...)
	}
	return &Result{Cells: cells}, nil
}

// archetypeCorpus generates one archetype's corpus. The generator runs
// with one worker: its output is the same at any worker count, and Run
// already spreads archetypes over the workers. The returned pages are
// shared by every persona replay of the archetype and must not be
// written to.
func archetypeCorpus(cfg Config, a webgen.Archetype) ([]*har.Page, error) {
	gcfg := webgen.DefaultConfig()
	gcfg.Sites = cfg.Sites
	gcfg.Seed = cfg.Seed
	gcfg.Workers = 1
	gcfg.Archetype = a
	ds, err := webgen.Generate(gcfg)
	if err != nil {
		return nil, err
	}
	return ds.Pages, nil
}

// totals is what one persona's replay of one archetype corpus yields:
// the connection economy (the embedded Cell, with Profile, DNS and
// SetupMs still zero) plus the two counts only pricing reads.
type totals struct {
	Cell
	resumed       int // sockets whose handshake resumed a stored ticket
	resolverConns int // pages that reached the resolver's wire
}

// replayer is one worker's replay state: a warm-path cache, a browser
// and a page environment, reset rather than rebuilt for every replay.
type replayer struct {
	b   browser.Browser
	env core.PageEnv
}

func newReplayer() *replayer {
	return &replayer{b: browser.Browser{Cache: cache.New(cache.Options{})}}
}

// replay runs every page of one archetype corpus through one persona.
// Neither the network profile nor the resolver transport is an input:
// both enter a cell only through price. The browser's pool resets per
// page (each load is a fresh browsing context) while the warm-path cache
// persists across the replay, so repeated third parties resolve and
// resume warm; the cache starts the replay empty, observably the same
// as a new one. pages is read-only.
func (r *replayer) replay(pages []*har.Page, persona Persona) totals {
	t := totals{Cell: Cell{Persona: persona.Name}}
	b, env := &r.b, &r.env
	cc := b.Cache
	cc.Reset()
	b.Policy = persona.Policy
	b.MaxConns = persona.MaxConns
	b.MaxConnsPerHost = persona.MaxConnsPerHost
	b.SkipOriginDNS = persona.SkipOriginDNS
	for _, p := range pages {
		env.LoadFirstParty(p)
		b.Reset()
		t.Pages++

		opened := 0
		for _, h := range env.Hosts() {
			if opened >= persona.PreconnectN {
				break
			}
			if b.Preconnect(env, h) {
				opened++
			}
		}

		for i := range p.Entries {
			en := &p.Entries[i]
			if en.NewDNS && len(en.DNSAnswer) > 0 {
				if cur, _ := env.Lookup(en.Host); !slices.Equal(cur, en.DNSAnswer) {
					// A recorded re-resolution (CDN migration): the
					// environment re-homes the host and the client's cached
					// answer is superseded the way a TTL expiry would.
					env.Rehome(en.Host, en.DNSAnswer)
					cc.PutDNS(en.Host, en.DNSAnswer, cc.DefaultTTL())
				}
			}
			out := b.Request(env, en.Host)
			t.Requests++
			if out.Coalesced() {
				t.Coalesced++
			}
			if out.ViaOrigin() {
				t.ViaOrigin++
			}
		}
		t.Conns += b.TotalNewConn
		t.Preconns += b.TotalPreconns
		t.Wasted += b.TotalPreconns - b.TotalPreconnsUsed
		t.Evicted += b.TotalEvicted
		t.Reused += b.TotalReused
		t.Got421 += b.Total421
		t.DNSQueries += b.TotalDNS
		t.resumed += b.TotalResumed
		if b.TotalDNS > 0 {
			t.resolverConns++
		}
	}
	return t
}

// price turns a replay's totals into the cell for one network profile
// and resolver transport.
func price(t totals, profile netsim.Profile, transport DNSTransport) Cell {
	c := t.Cell
	c.Profile = profile.Name
	c.DNS = transport.String()
	c.SetupMs = setupMs(c, t.resumed, t.resolverConns, profile.Params, transport)
	return c
}

// setupMs prices the cell's connection economy under the profile, in
// pure arithmetic from the netsim price list (no RNG — cells must be
// byte-stable): every socket is a full or resumed netsim.Setup. Do53
// resolution costs DNSMs per wire query; DoH pays one resolver-connection
// setup (priced as a resumed session to the resolver) per page that
// reached the wire plus one resolver round trip per query — the
// transport's amortization trade.
func setupMs(cell Cell, resumed, resolverConns int, p netsim.Params, t DNSTransport) float64 {
	full := max(cell.Conns+cell.Preconns-resumed, 0)
	ms := float64(full)*p.SetupMs(netsim.Setup{}) + float64(resumed)*p.SetupMs(netsim.Setup{Resumed: true})
	scale := p.CostScale()
	switch t {
	case transportDoH:
		// Count × unscaled price, then scale: the grouping the recorded
		// matrix cells were priced with, kept to the ulp.
		unscaled := p
		unscaled.LatencyScale, unscaled.LossRate = 1, 0
		ms += float64(resolverConns) * unscaled.SetupMs(netsim.Setup{Resumed: true}) * scale
		ms += float64(cell.DNSQueries) * p.RTTMs * scale
	default:
		ms += float64(cell.DNSQueries) * p.DNSMs * scale
	}
	return ms
}
