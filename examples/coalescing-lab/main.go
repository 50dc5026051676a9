// Coalescing-lab compares the three browser policies from the paper's
// §2.3 on identical page loads: Chromium's exact-IP matching, Firefox's
// transitive IP matching, and Firefox with ORIGIN frame support.
//
// The lab builds a small CDN-hosted "website" whose subresources are
// sharded across hostnames (some sharing address sets, some on disjoint
// addresses), then loads the page under each policy and prints the DNS
// queries, new connections, and coalescing decisions.
//
//	go run ./examples/coalescing-lab
package main

import (
	"fmt"
	"net/netip"
	"slices"

	"respectorigin/internal/browser"
)

// labEnv implements browser.Environment over the lab's own A records.
// Answers rotate round-robin per query from one cursor, as a
// load-balanced address pool does (RFC 1794).
type labEnv struct {
	records map[string][]netip.Addr
	rotate  int // advanced by every lookup of a name with several addresses
	sans    map[string][]string
	origins map[string][]string
	serves  map[string]map[netip.Addr]bool
}

func (l *labEnv) Lookup(host string) ([]netip.Addr, error) {
	addrs, ok := l.records[host]
	if !ok {
		return nil, fmt.Errorf("lab: no A records for %s", host)
	}
	first := 0
	if len(addrs) > 1 {
		first = l.rotate % len(addrs)
		l.rotate++
	}
	return slices.Concat(addrs[first:], addrs[:first]), nil
}

func (l *labEnv) CertSANs(host string, ip netip.Addr) []string {
	return l.sans[host]
}
func (l *labEnv) OriginSet(host string, ip netip.Addr) []string { return l.origins[host] }
func (l *labEnv) Reachable(host string, ip netip.Addr) bool {
	m, ok := l.serves[host]
	return ok && m[ip]
}

func main() {
	ipA := netip.MustParseAddr("203.0.113.1")
	ipB := netip.MustParseAddr("203.0.113.2")
	ipC := netip.MustParseAddr("203.0.113.3")
	ipX := netip.MustParseAddr("198.51.100.9") // third party, disjoint addresses

	siteCert := []string{"www.shop.test", "static.shop.test", "img.shop.test", "cdnjs.provider.test"}
	env := &labEnv{
		// Rotated answers are RFC 1794 load balancing, the IP-coalescing
		// killer.
		records: map[string][]netip.Addr{
			"www.shop.test":       {ipA, ipB},
			"static.shop.test":    {ipB, ipC},
			"img.shop.test":       {ipA, ipC},
			"cdnjs.provider.test": {ipX},
		},
		sans: map[string][]string{
			"www.shop.test":       siteCert,
			"static.shop.test":    siteCert,
			"img.shop.test":       siteCert,
			"cdnjs.provider.test": {"cdnjs.provider.test"},
		},
		origins: map[string][]string{
			// The CDN's ORIGIN frame: the third party rides this conn.
			"www.shop.test": {"static.shop.test", "img.shop.test", "cdnjs.provider.test"},
		},
		serves: map[string]map[netip.Addr]bool{
			"www.shop.test":       {ipA: true, ipB: true, ipC: true},
			"static.shop.test":    {ipA: true, ipB: true, ipC: true},
			"img.shop.test":       {ipA: true, ipB: true, ipC: true},
			"cdnjs.provider.test": {ipA: true, ipB: true, ipC: true, ipX: true},
		},
	}

	pageHosts := []string{"www.shop.test", "static.shop.test", "img.shop.test", "cdnjs.provider.test"}
	policies := []struct {
		name string
		b    *browser.Browser
	}{
		{"Chromium (exact IP)", browser.New(browser.PolicyChromium)},
		{"Firefox (transitive IP)", browser.New(browser.PolicyFirefox)},
		{"Firefox + ORIGIN", browser.New(browser.PolicyFirefoxOrigin)},
	}

	for _, p := range policies {
		fmt.Printf("=== %s ===\n", p.name)
		for _, host := range pageHosts {
			out := p.b.Request(env, host)
			verdict := fmt.Sprintf("NEW CONNECTION (%s)", out.Reason)
			if out.Reused() {
				verdict = fmt.Sprintf("coalesced onto %s", out.ConnHost)
				if out.ViaOrigin() {
					verdict += " (via ORIGIN frame)"
				}
			}
			fmt.Printf("  %-22s -> %s (dns queries: %d)\n", host, verdict, out.DNSQueries)
		}
		fmt.Printf("  totals: %d connections, %d DNS queries, %d reused\n\n",
			p.b.TotalNewConn, p.b.TotalDNS, p.b.TotalReused)
	}

	fmt.Println("Chromium keeps only the connected address, so rotated DNS answers")
	fmt.Println("defeat it; Firefox's cached address sets recover the shards; only")
	fmt.Println("the ORIGIN frame reaches the third party on its disjoint addresses.")
}
