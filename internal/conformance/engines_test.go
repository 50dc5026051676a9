package conformance

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"respectorigin/internal/browser"
	"respectorigin/internal/certs"
	"respectorigin/internal/core"
	"respectorigin/internal/h2"
	"respectorigin/internal/har"
	"respectorigin/internal/webgen"
)

// The repository answers "can this request ride an open connection?"
// three times: the §4 model (core.Timeline), the §2.3 client pool
// (browser.Browser over core.PageEnv) and a real RFC 8336 client
// (h2.ClientConn over crypto/tls). TestEnginesAgree holds them to each
// other host by host.

// engineRuns pairs each client policy with the model mode it is held to:
// the IP policies with ideal IP coalescing, firefox+origin (against the
// §4 best-case deployment) with ideal ORIGIN coalescing.
var engineRuns = [...]struct {
	policy browser.Policy
	mode   core.Mode
}{
	{browser.PolicyChromium, core.ModeIP},
	{browser.PolicyFirefox, core.ModeIP},
	{browser.PolicyFirefoxOrigin, core.ModeOrigin},
}

const (
	engineSites = 400
	engineSeed  = 1
	// livePages is how many pages of each archetype the live engine
	// loads: every connection is a real TLS handshake and a fresh leaf.
	livePages = 24
)

// hostFacts is what the model knows of one host of a page.
type hostFacts struct {
	addr   netip.Addr // the host's first entry's connected address
	asn    uint32     // and its origin AS
	secure bool       // reached over HTTPS at least once
}

// pageFacts returns the facts of hosts, in the order given.
func pageFacts(p *har.Page, hosts []string) []hostFacts {
	facts := make([]hostFacts, len(hosts))
	seen := make([]bool, len(hosts))
	for i := range p.Entries {
		e := &p.Entries[i]
		h := slices.Index(hosts, e.Host)
		if !seen[h] {
			seen[h] = true
			facts[h] = hostFacts{addr: e.ServerIP, asn: e.ServerASN}
		}
		facts[h].secure = facts[h].secure || e.Secure
	}
	return facts
}

// modelOpens is the model's answer per host: whether the host opens the
// connection of its service. A service is an address under ModeIP; under
// ModeOrigin it is the origin AS for a host reached over HTTPS and the
// address for a cleartext one, as Timeline.Counts has it.
func modelOpens(facts []hostFacts, mode core.Mode) []bool {
	opens := make([]bool, len(facts))
	addrs := map[netip.Addr]bool{}
	ases := map[uint32]bool{}
	for i, f := range facts {
		if mode == core.ModeOrigin && f.secure {
			opens[i] = !ases[f.asn]
			ases[f.asn] = true
		} else {
			opens[i] = !addrs[f.addr]
			addrs[f.addr] = true
		}
	}
	return opens
}

// browserAnswer is the browser's answer for one host, with what the
// classification of a disagreement needs to know of the pool it met.
type browserAnswer struct {
	out browser.Outcome
	// uncovered: a pooled connection holds the host's model address, and
	// none of those connections' certificates covers the host.
	uncovered bool
}

func browse(b *browser.Browser, env *core.PageEnv, facts []hostFacts) []browserAnswer {
	b.Reset()
	answers := make([]browserAnswer, len(facts))
	for i, host := range env.Hosts() {
		held, covered := false, false
		for _, c := range b.Conns() {
			if slices.Contains(c.Available, facts[i].addr) {
				held = true
				covered = covered || certs.Covers(c.SANs, host)
			}
		}
		answers[i] = browserAnswer{out: b.Request(env, host), uncovered: held && !covered}
	}
	return answers
}

// disagreementCause names why an engine answered a host differently from
// the model, or returns "" when no listed cause explains it. more is
// true when the engine opened a connection the model does not count.
//
//   - new:san-missing (engine opens more, ModeIP): the model coalesces
//     by address alone and assumes covering certificates, while the
//     browser meets the recorded ones: the pooled connection at the
//     host's address does not cover it.
//   - cleartext-host (engine opens fewer, ModeOrigin): the host is only
//     reached over cleartext HTTP. Timeline.Counts gives it one
//     connection per address; the browser lets it ride its AS's TLS
//     connection, whose ORIGIN frame lists it.
//   - cleartext-conn (engine opens fewer, ModeOrigin): the host rides a
//     connection the browser opened for a cleartext host of its AS,
//     which the model counted per address, so the model opens the AS's
//     first TLS connection here.
func disagreementCause(mode core.Mode, more bool, a browserAnswer, f, conn hostFacts) string {
	switch {
	case more && mode == core.ModeIP && a.uncovered:
		return "new:san-missing"
	case !more && mode == core.ModeOrigin && a.out.ViaOrigin() && !f.secure:
		return "cleartext-host"
	case !more && mode == core.ModeOrigin && a.out.ViaOrigin() && !conn.secure:
		return "cleartext-conn"
	}
	return ""
}

// pairTally counts one engine pair's per-host answers over an archetype.
type pairTally struct {
	name         string // "model/browser": the second engine's direction is reported
	hosts, agree int
	causes       map[string]*causeTally // "<direction> <cause>"
}

type causeTally struct {
	hosts, pages int
	lastRank     int
}

func (pt *pairTally) count(rank int, key string) {
	if pt.causes == nil {
		pt.causes = map[string]*causeTally{}
	}
	c := pt.causes[key]
	if c == nil {
		c = &causeTally{}
		pt.causes[key] = c
	}
	c.hosts++
	if c.lastRank != rank {
		c.pages++
		c.lastRank = rank
	}
}

func (pt *pairTally) write(sb *strings.Builder, prefix string) {
	fmt.Fprintf(sb, "%s %-14s hosts %5d  agree %5d\n", prefix, pt.name, pt.hosts, pt.agree)
	keys := make([]string, 0, len(pt.causes))
	for k := range pt.causes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		c := pt.causes[k]
		fmt.Fprintf(sb, "%s %-14s   %-32s hosts %5d  pages %4d\n", prefix, pt.name, k, c.hosts, c.pages)
	}
}

// TestEnginesAgree runs every webgen archetype (400 sites, seed 1) under
// each client policy and compares, per host in first-use order (the unit
// report.PolicyComparison replays), the three engines' answers: does the
// host open a connection or ride one already open?
//
//   - model: Timeline's ModeIP / ModeOrigin service identities, held to
//     Timeline.Counts page by page;
//   - browser: browser.Browser over PageEnv.LoadByAS, with Deploy(true)
//     for firefox+origin;
//   - live, firefox+origin on each archetype's first livePages pages: one
//     h2.Server per service presenting a certs leaf for the service's
//     names and an ORIGIN frame listing them, over crypto/tls on
//     net.Pipe. A host rides the first ClientConn whose CanRequest says
//     yes, and its GET must return 200; otherwise it dials its own
//     service.
//
// The live engine and the browser must agree on every host. Every
// disagreement with the model must have a cause disagreementCause names;
// both directions are counted, and the tally is pinned in
// testdata/engines.golden (-update re-records it).
func TestEnginesAgree(t *testing.T) {
	ca, err := certs.NewCA("Engines Test CA")
	if err != nil {
		t.Fatal(err)
	}
	live := &liveEngine{ca: ca, roots: ca.Pool()}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# TestEnginesAgree: sites %d, seed %d; live engine on the first %d pages of each archetype\n",
		engineSites, engineSeed, livePages)
	sb.WriteString("# archetype policy engines: per-host answers compared; each cause line is \"<second engine> opens more|fewer\"\n")
	for _, arch := range webgen.Archetypes() {
		ds, err := webgen.Generate(webgen.Config{Sites: engineSites, Seed: engineSeed, Workers: 2, Archetype: arch})
		if err != nil {
			t.Fatal(err)
		}
		var (
			env      core.PageEnv
			tl       core.Timeline
			browsers [len(engineRuns)]*browser.Browser
			tallies  [len(engineRuns)][]*pairTally
		)
		for k, run := range engineRuns {
			browsers[k] = browser.New(run.policy)
			tallies[k] = []*pairTally{{name: "model/browser"}}
			if run.mode == core.ModeOrigin {
				tallies[k] = append(tallies[k], &pairTally{name: "browser/live"}, &pairTally{name: "model/live"})
			}
		}
		for pi, p := range ds.Pages {
			env.LoadByAS(p)
			tl.Load(p)
			hosts := env.Hosts()
			facts := pageFacts(p, hosts)
			counts := tl.Counts()
			for k, run := range engineRuns {
				model := modelOpens(facts, run.mode)
				want := counts.IdealIP
				if run.mode == core.ModeOrigin {
					want = counts.IdealOrigin
				}
				if got := countTrue(model); got != want {
					t.Fatalf("%s rank %d %v: per-host model opens %d connections, Timeline.Counts %d",
						arch, p.Rank, run.mode, got, want)
				}
				env.Deploy(run.mode == core.ModeOrigin)
				answers := browse(browsers[k], &env, facts)
				var liveOpens []bool
				if run.mode == core.ModeOrigin && pi < livePages {
					liveOpens = live.load(t, &env)
				}
				for i, host := range hosts {
					a := answers[i]
					conn := facts[max(slices.Index(hosts, a.out.ConnHost), 0)]
					cause := func(more bool) string { return disagreementCause(run.mode, more, a, facts[i], conn) }
					br := a.out.NewConnection()
					tallies[k][0].compare(t, p.Rank, host, model[i], br, cause)
					if liveOpens != nil {
						// No cause excuses the live client from the browser's
						// answer; once they agree, the browser's outcome names
						// the model/live cause too.
						tallies[k][1].compare(t, p.Rank, host, br, liveOpens[i], func(bool) string { return "" })
						tallies[k][2].compare(t, p.Rank, host, model[i], liveOpens[i], cause)
					}
				}
			}
		}
		for k, run := range engineRuns {
			for _, pt := range tallies[k] {
				pt.write(&sb, fmt.Sprintf("%-9s %-14s", arch, run.policy))
			}
		}
	}
	checkText(t, "engines.golden", sb.String())
}

// compare counts one host's answers from the pair's two engines (true:
// opens a connection). A disagreement is counted under the cause named
// for it, and fails the test when it has none.
func (pt *pairTally) compare(t *testing.T, rank int, host string, first, second bool, cause func(more bool) string) {
	t.Helper()
	pt.hosts++
	if first == second {
		pt.agree++
		return
	}
	dir := "fewer"
	if second {
		dir = "more"
	}
	c := cause(second)
	if c == "" {
		t.Errorf("rank %d host %s: %s disagree (second opens %s) with no named cause", rank, host, pt.name, dir)
		return
	}
	pt.count(rank, dir+" "+c)
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// liveEngine loads a page over the real RFC 8336 stack: internal/h2 over
// crypto/tls on net.Pipe, one server per PageEnv service.
type liveEngine struct {
	ca    *certs.CA
	roots *x509.CertPool
}

type liveConn struct {
	cc   *h2.ClientConn
	done chan struct{} // closed when the server side returns
}

// load walks env's hosts in first-use order and reports per host whether
// it dialed a connection. env must be deployed: its OriginSet and
// CertSANs name a host's whole service.
func (le *liveEngine) load(t *testing.T, env *core.PageEnv) []bool {
	t.Helper()
	var conns []liveConn
	defer func() {
		for _, lc := range conns {
			_ = lc.cc.Close()
			<-lc.done
		}
	}()
	opens := make([]bool, len(env.Hosts()))
	for i, host := range env.Hosts() {
		var cc *h2.ClientConn
		for _, lc := range conns {
			if lc.cc.CanRequest(host) {
				cc = lc.cc
				break
			}
		}
		if cc == nil {
			lc := le.dial(t, host, env.OriginSet(host, netip.Addr{}))
			conns = append(conns, lc)
			cc, opens[i] = lc.cc, true
		}
		resp, err := cc.Get(host, "/")
		if err != nil {
			t.Fatalf("live: GET %s: %v", host, err)
		}
		if resp.Status != 200 {
			t.Errorf("live: GET %s: status %d, want 200", host, resp.Status)
		}
	}
	return opens
}

// dial opens a connection for host to a fresh server for its service:
// a leaf covering the service's names, and an ORIGIN frame listing them.
func (le *liveEngine) dial(t *testing.T, host string, service []string) liveConn {
	t.Helper()
	names := slices.Clone(service)
	leaf, err := le.ca.Issue(names...)
	if err != nil {
		t.Fatal(err)
	}
	srv := &h2.Server{
		Handler:       h2.HandlerFunc(func(w *h2.ResponseWriter, r *h2.Request) { w.WriteHeader(200) }),
		OriginSet:     names,
		Authoritative: func(authority string) bool { return slices.Contains(names, authority) },
	}
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeConn(tls.Server(serverEnd, &tls.Config{
			Certificates: []tls.Certificate{leaf.TLSCertificate()},
			NextProtos:   []string{"h2"},
		}))
	}()
	tc := tls.Client(clientEnd, &tls.Config{RootCAs: le.roots, ServerName: host, NextProtos: []string{"h2"}})
	if err := tc.Handshake(); err != nil {
		t.Fatalf("live: TLS handshake for %s: %v", host, err)
	}
	cc, err := h2.NewClientConn(tc, h2.ClientConnOptions{Origin: host})
	if err != nil {
		t.Fatalf("live: h2 preface for %s: %v", host, err)
	}
	return liveConn{cc: cc, done: done}
}

// checkText compares got with testdata/<file>, or records it with -update.
func checkText(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/conformance -run %s -update to record)", err, t.Name())
	}
	if got != string(want) {
		t.Errorf("%s changed:\n--- got\n%s--- want\n%s", file, got, want)
	}
}

// FuzzOriginMonotone holds the model and the browser (no TLS) to two
// rules over one generated page (archetype, webgen seed and rank) with
// one added SAN (host `from`'s certificate also names host `to`):
//
//   - adding a SAN never lowers the number of coalesced hosts, under
//     ideal ORIGIN (origin: ModeOrigin, firefox+origin with the §4
//     deployment) or ideal IP (ModeIP, chromium and firefox on the
//     recorded certificates);
//   - enabling ORIGIN never raises the connection count: firefox+origin
//     deployed opens no more connections than firefox, with the SAN and
//     without. The model may exceed IdealIP only by the addresses it
//     counts twice (doubleCounted), the cleartext cause TestEnginesAgree
//     names.
func FuzzOriginMonotone(f *testing.F) {
	f.Fuzz(func(t *testing.T, arch uint8, seed int64, rank, from, to uint8, origin bool) {
		archs := webgen.Archetypes()
		const sites = 64
		r := 1 + int(rank)%sites
		ds, err := webgen.Generate(webgen.Config{Sites: sites, Seed: seed, Workers: 1,
			Archetype: archs[int(arch)%len(archs)], RankLo: r, RankHi: r + 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Pages) == 0 {
			return // the crawl of this rank failed
		}
		p := ds.Pages[0]
		hosts := pageHosts(p)
		q := withSAN(p, hosts[int(from)%len(hosts)], hosts[int(to)%len(hosts)])

		var m monotone
		for _, pg := range []*har.Page{p, q} {
			m.load(pg)
			c := m.tl.Counts()
			if twice := doubleCounted(pageFacts(pg, pageHosts(pg))); c.IdealOrigin > c.IdealIP+twice {
				t.Errorf("rank %d: ideal ORIGIN %d connections > ideal IP %d + %d cleartext-shared addresses",
					pg.Rank, c.IdealOrigin, c.IdealIP, twice)
			}
			if on, off := m.conns(browser.PolicyFirefoxOrigin), m.conns(browser.PolicyFirefox); on > off {
				t.Errorf("rank %d: firefox+origin opens %d connections > firefox %d", pg.Rank, on, off)
			}
		}
		policies := []browser.Policy{browser.PolicyChromium, browser.PolicyFirefox}
		mode := core.ModeIP
		if origin {
			policies, mode = []browser.Policy{browser.PolicyFirefoxOrigin}, core.ModeOrigin
		}
		m.load(p)
		before := m.coalesced(mode, policies)
		m.load(q)
		after := m.coalesced(mode, policies)
		for i := range before {
			if after[i] < before[i] {
				t.Errorf("rank %d: adding %s to %s's certificate lowers coalesced hosts %d → %d (engine %d)",
					p.Rank, hosts[int(to)%len(hosts)], hosts[int(from)%len(hosts)], before[i], after[i], i)
			}
		}
	})
}

// doubleCounted returns how many addresses are the first address of both
// a host reached over HTTPS and a cleartext host. Timeline.Counts gives
// such an address one connection under ModeIP, and under ModeOrigin one
// for the cleartext host besides the secure host's AS connection.
func doubleCounted(facts []hostFacts) int {
	secure, clear := map[netip.Addr]bool{}, map[netip.Addr]bool{}
	for _, f := range facts {
		if f.secure {
			secure[f.addr] = true
		} else {
			clear[f.addr] = true
		}
	}
	n := 0
	for a := range clear {
		if secure[a] {
			n++
		}
	}
	return n
}

// monotone is FuzzOriginMonotone's pair of engines over one page.
type monotone struct {
	env core.PageEnv
	tl  core.Timeline
	p   *har.Page
}

func (m *monotone) load(p *har.Page) {
	m.p = p
	m.env.LoadByAS(p)
	m.tl.Load(p)
}

// conns replays the page through a browser of the policy, firefox+origin
// against the §4 deployment, and returns the connections it opened.
func (m *monotone) conns(pol browser.Policy) int {
	m.env.Deploy(pol == browser.PolicyFirefoxOrigin)
	b := browser.New(pol)
	for _, h := range m.env.Hosts() {
		b.Request(&m.env, h)
	}
	return b.TotalNewConn
}

// coalesced returns the hosts that ride another host's connection, for
// the model under mode and then for a browser of each policy.
func (m *monotone) coalesced(mode core.Mode, policies []browser.Policy) []int {
	hosts := m.env.Hosts()
	c := m.tl.Counts()
	n := c.IdealIP
	if mode == core.ModeOrigin {
		n = c.IdealOrigin
	}
	out := []int{len(hosts) - n}
	for _, pol := range policies {
		out = append(out, len(hosts)-m.conns(pol))
	}
	return out
}

// withSAN returns a copy of p in which every certificate recorded for
// host from also names host to. Entries that rode an open connection
// record no certificate and stay without one.
func withSAN(p *har.Page, from, to string) *har.Page {
	q := p.Clone()
	for i := range q.Entries {
		if e := &q.Entries[i]; e.Host == from && len(e.CertSANs) > 0 {
			e.CertSANs = append(slices.Clip(e.CertSANs), to)
		}
	}
	return q
}

// pageHosts lists p's hostnames in first-use order, each once.
func pageHosts(p *har.Page) []string {
	var env core.PageEnv
	env.LoadByAS(p)
	return env.Hosts()
}
