package report

import (
	"fmt"
	"net/netip"
	"strings"

	"respectorigin/internal/browser"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
	"respectorigin/internal/parallel"
)

// pageEnv adapts one recorded page into a browser.Environment: DNS
// answers come from the recorded answer sets, certificates from the
// recorded SANs, and — when originDeployed — every server advertises
// the page's same-AS hostnames in its ORIGIN frame with an ideally
// extended certificate, the §4 best-case deployment. One pageEnv serves
// page after page: load keeps the maps and slices of the page before.
type pageEnv struct {
	ids   map[string]int32 // hostname → index into hosts and names
	hosts []pageHost
	names []string // distinct hostnames in first-use order, as har.Page.Hosts

	// Hostnames grouped by origin AS, and each group's addresses (the
	// model's core assumption, §4.1: every server in an AS can serve all
	// content of that AS).
	groupIDs   map[uint32]int32
	groups     [][]string
	groupAddrs [][]netip.Addr

	originDeployed bool
}

type pageHost struct {
	addrs  []netip.Addr
	group  int32
	sans   []string
	secure bool
}

func (env *pageEnv) load(p *har.Page) {
	if env.ids == nil {
		env.ids = map[string]int32{}
		env.groupIDs = map[uint32]int32{}
	}
	clear(env.ids)
	clear(env.groupIDs)
	env.hosts = env.hosts[:0]
	env.names = env.names[:0]
	ngroups := 0
	for i := range p.Entries {
		e := &p.Entries[i]
		id, ok := env.ids[e.Host]
		if !ok {
			id = int32(len(env.hosts))
			env.ids[e.Host] = id
			g, ok := env.groupIDs[e.ServerASN]
			if !ok {
				g = int32(ngroups)
				env.groupIDs[e.ServerASN] = g
				if ngroups == len(env.groups) {
					env.groups = append(env.groups, nil)
					env.groupAddrs = append(env.groupAddrs, nil)
				}
				env.groups[g] = env.groups[g][:0]
				env.groupAddrs[g] = env.groupAddrs[g][:0]
				ngroups++
			}
			env.groups[g] = append(env.groups[g], e.Host)
			env.hosts = append(env.hosts, pageHost{group: g})
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
		if e.Secure {
			h.secure = true
		}
	}
	for id := range env.hosts {
		h := &env.hosts[id]
		env.groupAddrs[h.group] = append(env.groupAddrs[h.group], h.addrs...)
		if len(h.sans) == 0 {
			h.sans = env.names[id : id+1 : id+1]
		}
	}
}

func (env *pageEnv) Lookup(host string) ([]netip.Addr, error) {
	id, ok := env.ids[host]
	if !ok {
		return nil, fmt.Errorf("report: unknown host %s", host)
	}
	return env.hosts[id].addrs, nil
}

func (env *pageEnv) CertSANs(host string, ip netip.Addr) []string {
	id, ok := env.ids[host]
	if !ok {
		return nil
	}
	if env.originDeployed {
		// The §4.3 least-effort deployment: the certificate covers the
		// host plus every same-service hostname — its group, which the
		// host is itself a member of.
		return env.groups[env.hosts[id].group]
	}
	return env.hosts[id].sans
}

func (env *pageEnv) OriginSet(host string, ip netip.Addr) []string {
	if !env.originDeployed {
		return nil
	}
	id, ok := env.ids[host]
	if !ok {
		return nil
	}
	return env.groups[env.hosts[id].group]
}

func (env *pageEnv) Reachable(host string, ip netip.Addr) bool {
	id, ok := env.ids[host]
	if !ok {
		return false
	}
	for _, a := range env.groupAddrs[env.hosts[id].group] {
		if a == ip {
			return true
		}
	}
	return false
}

// PolicyStats summarizes one policy over the corpus.
type PolicyStats struct {
	Policy            string
	OriginDeployed    bool
	MedianConnections float64
	MedianDNSQueries  float64
}

// policyConfigs are the three clients PolicyComparison replays.
var policyConfigs = [3]struct {
	name     string
	policy   browser.Policy
	deployed bool
}{
	{"chromium (exact IP)", browser.PolicyChromium, false},
	{"firefox (transitive IP)", browser.PolicyFirefox, false},
	{"firefox+origin, ideal deployment", browser.PolicyFirefoxOrigin, true},
}

// policyReplayer is one worker's state for PolicyComparison: the page
// environment and one browser per client policy, reset from page to
// page so a corpus pass reuses their storage.
type policyReplayer struct {
	env      pageEnv
	browsers [len(policyConfigs)]*browser.Browser
}

func newPolicyReplayer() *policyReplayer {
	r := &policyReplayer{}
	for k, cfg := range policyConfigs {
		r.browsers[k] = browser.New(cfg.policy)
	}
	return r
}

// replay visits the page's hosts in first-use order under each policy
// and returns the connections opened and DNS queries made.
func (r *policyReplayer) replay(p *har.Page) (out [len(policyConfigs)][2]float64) {
	r.env.load(p)
	for k, cfg := range policyConfigs {
		r.env.originDeployed = cfg.deployed
		b := r.browsers[k]
		b.Reset()
		for _, host := range r.env.names {
			b.Request(&r.env, host)
		}
		out[k] = [2]float64{float64(b.TotalNewConn), float64(b.TotalDNS)}
	}
	return out
}

// PolicyComparison replays every page's host sequence through the three
// real client policies — Chromium, Firefox, Firefox+ORIGIN (the last
// against the §4 ideal ORIGIN deployment) — and reports per-policy
// connection and DNS medians. It cross-validates the analytic model of
// Figure 3 with the executable policy implementations from §2.3.
func (c *Corpus) PolicyComparison() ([]PolicyStats, string) {
	// Each page replay is independent, so the pass parallelizes cleanly.
	perPage := parallel.MapWith(len(c.DS.Pages), c.workers, newPolicyReplayer,
		func(r *policyReplayer, i int) [len(policyConfigs)][2]float64 { return r.replay(c.DS.Pages[i]) })
	var out []PolicyStats
	conns := make([]float64, len(perPage))
	dns := make([]float64, len(perPage))
	for k, cfg := range policyConfigs {
		for i := range perPage {
			conns[i], dns[i] = perPage[i][k][0], perPage[i][k][1]
		}
		out = append(out, PolicyStats{
			Policy:            cfg.name,
			OriginDeployed:    cfg.deployed,
			MedianConnections: measure.Median(conns),
			MedianDNSQueries:  measure.Median(dns),
		})
	}
	var sb strings.Builder
	sb.WriteString("Policy cross-validation: real §2.3 client policies replayed over the corpus\n")
	sb.WriteString("  policy                                  median-conns  median-dns\n")
	for _, s := range out {
		fmt.Fprintf(&sb, "  %-40s %11.0f %11.0f\n", s.Policy, s.MedianConnections, s.MedianDNSQueries)
	}
	sb.WriteString("  (compare with Figure 3: the executable policies land where the model predicts)\n")
	return out, sb.String()
}
