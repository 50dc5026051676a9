package core

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"respectorigin/internal/browser"
	"respectorigin/internal/har"
	"respectorigin/internal/webgen"
)

// refASEnv is the environment internal/report built before PageEnv:
// hostnames grouped by origin AS, originDeployed switching ORIGIN frames
// and ideal certificates on. Kept as the reference for LoadByAS.
type refASEnv struct {
	ids            map[string]int32
	hosts          []refASHost
	names          []string
	groupIDs       map[uint32]int32
	groups         [][]string
	groupAddrs     [][]netip.Addr
	originDeployed bool
}

type refASHost struct {
	addrs []netip.Addr
	group int32
	sans  []string
}

func newRefASEnv(p *har.Page) *refASEnv {
	env := &refASEnv{ids: map[string]int32{}, groupIDs: map[uint32]int32{}}
	for i := range p.Entries {
		e := &p.Entries[i]
		id, ok := env.ids[e.Host]
		if !ok {
			id = int32(len(env.hosts))
			env.ids[e.Host] = id
			g, ok := env.groupIDs[e.ServerASN]
			if !ok {
				g = int32(len(env.groups))
				env.groupIDs[e.ServerASN] = g
				env.groups = append(env.groups, nil)
				env.groupAddrs = append(env.groupAddrs, nil)
			}
			env.groups[g] = append(env.groups[g], e.Host)
			env.hosts = append(env.hosts, refASHost{group: g})
			env.names = append(env.names, e.Host)
		}
		h := &env.hosts[id]
		if len(e.DNSAnswer) > 0 && len(h.addrs) == 0 {
			h.addrs = e.DNSAnswer
		}
		if len(h.addrs) == 0 && e.ServerIP.IsValid() {
			h.addrs = []netip.Addr{e.ServerIP}
		}
		if len(e.CertSANs) > 0 && len(h.sans) == 0 {
			h.sans = e.CertSANs
		}
	}
	for id := range env.hosts {
		h := &env.hosts[id]
		env.groupAddrs[h.group] = append(env.groupAddrs[h.group], h.addrs...)
		if len(h.sans) == 0 {
			h.sans = env.names[id : id+1 : id+1]
		}
	}
	return env
}

func (env *refASEnv) Lookup(host string) ([]netip.Addr, error) {
	id, ok := env.ids[host]
	if !ok {
		return nil, fmt.Errorf("report: unknown host %s", host)
	}
	return env.hosts[id].addrs, nil
}

func (env *refASEnv) CertSANs(host string, ip netip.Addr) []string {
	id, ok := env.ids[host]
	if !ok {
		return nil
	}
	if env.originDeployed {
		return env.groups[env.hosts[id].group]
	}
	return env.hosts[id].sans
}

func (env *refASEnv) OriginSet(host string, ip netip.Addr) []string {
	if !env.originDeployed {
		return nil
	}
	id, ok := env.ids[host]
	if !ok {
		return nil
	}
	return env.groups[env.hosts[id].group]
}

func (env *refASEnv) Reachable(host string, ip netip.Addr) bool {
	id, ok := env.ids[host]
	if !ok {
		return false
	}
	return slices.Contains(env.groupAddrs[env.hosts[id].group], ip)
}

// pageEnv is the environment internal/scenario built per page and
// persona before PageEnv: four maps, the first-party cluster found by
// hostname suffix, migrate for recorded re-resolutions. Kept as the
// reference for LoadFirstParty and Rehome.
type pageEnv struct {
	addrs        map[string][]netip.Addr
	sans         map[string][]string
	cluster      map[string]bool
	clusterAddrs map[netip.Addr]bool
	origins      []string
}

func newPageEnv(p *har.Page) *pageEnv {
	e := &pageEnv{
		addrs:   map[string][]netip.Addr{},
		sans:    map[string][]string{},
		cluster: map[string]bool{},
	}
	apexSuffix := "." + strings.TrimPrefix(p.Host, "www.")
	for i := range p.Entries {
		en := &p.Entries[i]
		if en.NewDNS && e.addrs[en.Host] == nil {
			e.addrs[en.Host] = en.DNSAnswer
		}
		if len(en.CertSANs) > 0 && e.sans[en.Host] == nil {
			e.sans[en.Host] = en.CertSANs
		}
		if en.Host == p.Host || strings.HasSuffix(en.Host, apexSuffix) {
			e.cluster[en.Host] = true
		}
	}
	for h := range e.cluster {
		e.origins = append(e.origins, h)
	}
	sort.Strings(e.origins)
	e.rebuildClusterAddrs()
	return e
}

func (e *pageEnv) rebuildClusterAddrs() {
	e.clusterAddrs = map[netip.Addr]bool{}
	for h := range e.cluster {
		for _, a := range e.addrs[h] {
			e.clusterAddrs[a] = true
		}
	}
}

func (e *pageEnv) migrate(host string, addrs []netip.Addr) {
	e.addrs[host] = addrs
	if e.cluster[host] {
		e.rebuildClusterAddrs()
	}
}

func (e *pageEnv) answerChanged(en *har.Entry) bool {
	return en.NewDNS && len(en.DNSAnswer) > 0 && !slices.Equal(e.addrs[en.Host], en.DNSAnswer)
}

func (e *pageEnv) Lookup(host string) ([]netip.Addr, error) {
	addrs := e.addrs[host]
	if len(addrs) == 0 {
		return nil, fmt.Errorf("scenario: no recorded answer for %s", host)
	}
	return addrs, nil
}

func (e *pageEnv) CertSANs(host string, ip netip.Addr) []string {
	if sans := e.sans[host]; sans != nil {
		return sans
	}
	return []string{host}
}

func (e *pageEnv) OriginSet(host string, ip netip.Addr) []string {
	if e.cluster[host] {
		return e.origins
	}
	return nil
}

func (e *pageEnv) Reachable(host string, ip netip.Addr) bool {
	if e.cluster[host] {
		return e.clusterAddrs[ip]
	}
	return slices.Contains(e.addrs[host], ip)
}

// pageAddrs lists every address the page shows: connected addresses and
// whole answer sets, the pre-migration ones included.
func pageAddrs(p *har.Page) []netip.Addr {
	seen := map[netip.Addr]bool{}
	var out []netip.Addr
	for i := range p.Entries {
		e := &p.Entries[i]
		for _, a := range append([]netip.Addr{e.ServerIP}, e.DNSAnswer...) {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// sameAnswers fails unless got and want answer alike for every host of
// the page at every address of the page. Origin sets compare as sets:
// the browser keeps them in a map.
func sameAnswers(t *testing.T, when string, p *har.Page, got, want browser.Environment) {
	t.Helper()
	sorted := func(s []string) []string {
		s = slices.Clone(s)
		sort.Strings(s)
		return s
	}
	addrs := pageAddrs(p)
	for _, host := range distinctHosts(p) {
		ga, gerr := got.Lookup(host)
		wa, werr := want.Lookup(host)
		if !slices.Equal(ga, wa) || (gerr != nil) != (werr != nil) {
			t.Fatalf("%s, rank %d: Lookup(%s) = %v, %v; reference %v, %v", when, p.Rank, host, ga, gerr, wa, werr)
		}
		for _, ip := range addrs {
			if g, w := got.CertSANs(host, ip), want.CertSANs(host, ip); !slices.Equal(g, w) {
				t.Fatalf("%s, rank %d: CertSANs(%s, %v) = %v, reference %v", when, p.Rank, host, ip, g, w)
			}
			if g, w := sorted(got.OriginSet(host, ip)), sorted(want.OriginSet(host, ip)); !slices.Equal(g, w) {
				t.Fatalf("%s, rank %d: OriginSet(%s, %v) = %v, reference %v", when, p.Rank, host, ip, g, w)
			}
			if g, w := got.Reachable(host, ip), want.Reachable(host, ip); g != w {
				t.Fatalf("%s, rank %d: Reachable(%s, %v) = %v, reference %v", when, p.Rank, host, ip, g, w)
			}
		}
	}
}

// One PageEnv carried across every page of the three archetypes answers
// what the two environments it replaced answered, each built fresh for
// the page: by origin AS under both deployment settings, and by
// first-party cluster before and after every recorded re-resolution.
func TestPageEnvMatchesReferenceEnvironments(t *testing.T) {
	var env PageEnv
	for _, a := range webgen.Archetypes() {
		rehomed := 0
		for _, p := range archetypePages(t, a, 2000) {
			env.LoadByAS(p)
			ref := newRefASEnv(p)
			if want := distinctHosts(p); !reflect.DeepEqual(env.Hosts(), want) {
				t.Fatalf("%s rank %d: Hosts() = %v, page lists %v", a, p.Rank, env.Hosts(), want)
			}
			for _, deployed := range []bool{false, true, false} {
				env.Deploy(deployed)
				ref.originDeployed = deployed
				sameAnswers(t, fmt.Sprintf("%s by AS, deployed=%v", a, deployed), p, &env, ref)
			}

			env.LoadFirstParty(p)
			old := newPageEnv(p)
			sameAnswers(t, fmt.Sprintf("%s first-party", a), p, &env, old)
			for i := range p.Entries {
				en := &p.Entries[i]
				if !old.answerChanged(en) {
					continue
				}
				rehomed++
				old.migrate(en.Host, en.DNSAnswer)
				env.Rehome(en.Host, en.DNSAnswer)
				sameAnswers(t, fmt.Sprintf("%s first-party, after entry %d re-resolved %s", a, i, en.Host), p, &env, old)
			}
		}
		if (rehomed > 0) != (a == webgen.ArchetypeMigration) {
			t.Errorf("%s: %d recorded re-resolutions", a, rehomed)
		}
	}
}

// A warmed-up PageEnv loads pages, deploys and re-homes on the storage
// it has. The one thing it allocates is the block that one-name
// certificates of hosts without a recorded one are cut from, 256 to a
// block: they must outlive the page (see bareCert).
func TestPageEnvLoadAllocatesNothing(t *testing.T) {
	for _, a := range webgen.Archetypes() {
		pages := archetypePages(t, a, 800)
		bare := 0
		for _, p := range pages {
			certs := map[string]bool{}
			for i := range p.Entries {
				certs[p.Entries[i].Host] = certs[p.Entries[i].Host] || len(p.Entries[i].CertSANs) > 0
			}
			for _, has := range certs {
				if !has {
					bare++
				}
			}
		}
		var env PageEnv
		pass := func() {
			for _, p := range pages {
				env.LoadByAS(p)
				env.Deploy(true)
				env.LoadFirstParty(p)
				for i := range p.Entries {
					if en := &p.Entries[i]; en.NewDNS {
						env.Rehome(en.Host, en.DNSAnswer)
					}
				}
			}
		}
		blocks := float64(2*bare/256 + 1)
		if allocs := testing.AllocsPerRun(3, pass); allocs > blocks {
			t.Errorf("%s: a pass over %d pages allocates %.0f times, want ≤ %.0f (%d one-name certificates)", a, len(pages), allocs, blocks, 2*bare)
		}
	}
}

// distinctHosts lists p's hostnames in first-use order, each once.
func distinctHosts(p *har.Page) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range p.Entries {
		if !seen[e.Host] {
			seen[e.Host] = true
			out = append(out, e.Host)
		}
	}
	return out
}
