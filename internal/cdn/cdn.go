// Package cdn simulates the deployment CDN of §5: a multi-PoP content
// delivery network hosting customer zones and the popular third-party
// domain, with the operational machinery the paper's experiments used —
// certificate reissue with byte-equalized control names (Figure 6),
// DNS alignment for IP-based coalescing (§5.2), a connection-
// termination process that sends ORIGIN frames (§5.3), a 1%-sampled
// logging pipeline with the SNI≠Host coalescing flag bit, and
// treatment-group assignment.
//
// The simulator implements browser.Environment so the client policies
// in internal/browser drive it directly, and its telemetry reproduces
// the paper's passive (Figure 8) and active (Figure 7) measurements.
package cdn

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"

	"respectorigin/internal/certs"
)

// Phase is the deployment phase.
type Phase int

// Phases of the §5 deployment.
const (
	// PhaseBaseline: no changes; every hostname on its own addresses.
	PhaseBaseline Phase = iota
	// PhaseIP (§5.2): sample zones and the third party share a single
	// new address; web servers answer for all of them on it.
	PhaseIP
	// PhaseOrigin (§5.3): DNS reverted; the termination process sends
	// ORIGIN frames listing the third party (experiment) or the unused
	// control domain (control).
	PhaseOrigin
)

func (p Phase) String() string {
	switch p {
	case PhaseBaseline:
		return "baseline"
	case PhaseIP:
		return "ip-coalescing"
	case PhaseOrigin:
		return "origin-frame"
	default:
		return "unknown"
	}
}

// Treatment labels a zone's experimental group.
type Treatment int

// Treatments.
const (
	TreatmentNone Treatment = iota
	TreatmentControl
	TreatmentExperiment
)

func (t Treatment) String() string {
	switch t {
	case TreatmentControl:
		return "control"
	case TreatmentExperiment:
		return "experiment"
	default:
		return "none"
	}
}

// SLA tiers; the third-party domain runs at SLATierCritical, which is
// why the §5.2 experiment had to use a new unallocated address.
type SLA int

// SLA tiers.
const (
	SLATierFree SLA = iota
	SLATierPro
	SLATierCritical
)

// Zone is one customer domain on the CDN.
type Zone struct {
	Host      string
	SANs      []string // certificate SAN list currently served
	SLA       SLA
	Treatment Treatment
	Addrs     []netip.Addr

	// UsesAnonymousFetch marks zones whose pages request the third
	// party with crossorigin=anonymous or fetch()/XHR, which do not
	// coalesce (§5.3 discussion).
	UsesAnonymousFetch bool
	// Churned marks zones that stopped referencing the third party
	// after sample selection (site churn, §5.3).
	Churned bool
	// ThirdPartyPools is how many independent connection pools the
	// zone's page opens toward the third party (1 for most sites).
	ThirdPartyPools int
}

// CDN is the simulated provider.
type CDN struct {
	mu sync.Mutex

	// ThirdParty is the popular shared domain (cdnjs-like).
	ThirdParty string
	// ControlName is the equal-length unused domain added to control
	// certificates (Figure 6).
	ControlName string

	zones map[string]*Zone
	// records holds each hosted name's A records by dnsKey. A write
	// installs a fresh slice: answers handed out are never written to.
	records map[string][]netip.Addr

	phase Phase

	// alignedAddr is the single new address used during PhaseIP.
	alignedAddr netip.Addr
	// thirdPartyAddrs are the third party's standard anycast addresses.
	thirdPartyAddrs []netip.Addr
	// thirdPartySANs is the third party's certificate, built once: every
	// connection to it asks, and the warm-path stores retain the answer.
	thirdPartySANs []string
	// originExperiment and originControl are the two ORIGIN frame
	// contents of §5.3, built once and handed out read-only.
	originExperiment, originControl []string
	// ipServes maps an address to the set of hostnames authoritatively
	// served on it.
	ipServes map[netip.Addr]map[string]bool

	// PoPs is the number of points of presence (§5.3: over 275).
	PoPs int

	pipeline *LogPipeline
}

// Config for New.
type Config struct {
	ThirdParty      string
	ThirdPartyAddrs []netip.Addr
	AlignedAddr     netip.Addr
	PoPs            int
	SampleRate      float64 // log sampling, default 0.01
	Seed            int64
}

// New creates a CDN hosting the third-party domain.
func New(c Config) *CDN {
	if c.ThirdParty == "" {
		c.ThirdParty = "cdnjs.cloudflare.com"
	}
	if len(c.ThirdPartyAddrs) == 0 {
		c.ThirdPartyAddrs = []netip.Addr{netip.MustParseAddr("104.16.9.9")}
	}
	if !c.AlignedAddr.IsValid() {
		c.AlignedAddr = netip.MustParseAddr("104.16.200.1")
	}
	if c.PoPs == 0 {
		c.PoPs = 275
	}
	if c.SampleRate == 0 {
		c.SampleRate = 0.01
	}
	controlName := certs.EqualLengthControlName(c.ThirdParty, 2)
	cdn := &CDN{
		ThirdParty:       c.ThirdParty,
		ControlName:      controlName,
		zones:            make(map[string]*Zone),
		records:          make(map[string][]netip.Addr),
		alignedAddr:      c.AlignedAddr,
		thirdPartyAddrs:  c.ThirdPartyAddrs,
		thirdPartySANs:   []string{c.ThirdParty, "*." + firstLabelParent(c.ThirdParty)},
		originExperiment: []string{c.ThirdParty},
		originControl:    []string{controlName},
		ipServes:         make(map[netip.Addr]map[string]bool),
		PoPs:             c.PoPs,
		pipeline:         NewLogPipeline(c.SampleRate, c.Seed),
	}
	cdn.mu.Lock()
	defer cdn.mu.Unlock()
	cdn.lockedAddA(c.ThirdParty, c.ThirdPartyAddrs)
	cdn.lockedServeOn(c.ThirdPartyAddrs, c.ThirdParty)
	return cdn
}

// Pipeline returns the CDN's logging pipeline.
func (c *CDN) Pipeline() *LogPipeline { return c.pipeline }

// Phase returns the current deployment phase.
func (c *CDN) Phase() Phase {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phase
}

// AddZone registers a customer zone with its serving addresses and an
// initial certificate covering just the zone host.
func (c *CDN) AddZone(host string, sla SLA, addrs ...netip.Addr) *Zone {
	c.mu.Lock()
	defer c.mu.Unlock()
	z := &Zone{
		Host:            host,
		SANs:            []string{host},
		SLA:             sla,
		Addrs:           addrs,
		ThirdPartyPools: 1,
	}
	c.zones[host] = z
	c.lockedAddA(host, addrs)
	c.lockedServeOn(addrs, host)
	return z
}

// Zone returns a registered zone.
func (c *CDN) Zone(host string) *Zone {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.zones[host]
}

// Zones returns all zones sorted by host.
func (c *CDN) Zones() []*Zone {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Zone, 0, len(c.zones))
	for _, z := range c.zones {
		out = append(out, z)
	}
	// Hosts are the c.zones map keys, so they are distinct and the
	// unstable sort is total: the result is independent of both map
	// iteration order and zone registration order.
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

func (c *CDN) lockedServeOn(addrs []netip.Addr, host string) {
	for _, a := range addrs {
		m, ok := c.ipServes[a]
		if !ok {
			m = make(map[string]bool)
			c.ipServes[a] = m
		}
		m[host] = true
	}
}

// recordTTL is the TTL, in seconds, of every A record the CDN serves.
const recordTTL = 300

// dnsKey is a name's canonical spelling: trimmed, lower-case, without
// the trailing dot.
func dnsKey(host string) string {
	return strings.TrimSuffix(strings.ToLower(strings.TrimSpace(host)), ".")
}

// lockedAddA adds A records to host; a name never given one stays unknown.
func (c *CDN) lockedAddA(host string, addrs []netip.Addr) {
	if len(addrs) == 0 {
		return
	}
	key := dnsKey(host)
	old := c.records[key]
	c.records[key] = append(old[:len(old):len(old)], addrs...)
}

// lockedSetA replaces host's A records; set to none, the name answers empty.
func (c *CDN) lockedSetA(host string, addrs ...netip.Addr) {
	c.records[dnsKey(host)] = append([]netip.Addr(nil), addrs...)
}

// ReissueCertificates performs the §5.1 certificate setup: experiment
// zones gain the third-party domain in their SANs; control zones gain
// the byte-equalized unused control name. Returns how many were
// modified.
func (c *CDN) ReissueCertificates() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, z := range c.zones {
		switch z.Treatment {
		case TreatmentExperiment:
			z.SANs = appendUnique(z.SANs, c.ThirdParty)
			n++
		case TreatmentControl:
			z.SANs = appendUnique(z.SANs, c.ControlName)
			n++
		}
	}
	return n
}

// EnterPhaseIP deploys the §5.2 IP-coalescing setup: every treated
// zone and the third party move onto the single aligned address, and
// the web servers are configured to answer for the third party even
// when the TLS SNI differs from the Host (domain-fronting checks).
func (c *CDN) EnterPhaseIP() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.phase = PhaseIP
	for _, z := range c.zones {
		if z.Treatment == TreatmentNone {
			continue
		}
		c.lockedSetA(z.Host, c.alignedAddr)
		c.lockedServeOn([]netip.Addr{c.alignedAddr}, z.Host)
	}
	c.lockedSetA(c.ThirdParty, c.alignedAddr)
	c.lockedServeOn([]netip.Addr{c.alignedAddr}, c.ThirdParty)
}

// EnterPhaseOrigin deploys the §5.3 ORIGIN setup: DNS reverts to
// standard traffic engineering (restoring the third party's SLA) and
// the ORIGIN-capable termination process takes over for sample zones.
// Sample zones move to an isolated anycast address for observability.
func (c *CDN) EnterPhaseOrigin(isolated netip.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.phase = PhaseOrigin
	for _, z := range c.zones {
		if z.Treatment == TreatmentNone {
			continue
		}
		if isolated.IsValid() {
			c.lockedSetA(z.Host, isolated)
			c.lockedServeOn([]netip.Addr{isolated}, z.Host)
		} else {
			c.lockedSetA(z.Host, z.Addrs...)
		}
		// Zone edges answer for the third party: the ORIGIN frame
		// directs clients there and the request pipeline routes it.
		addrs := z.Addrs
		if isolated.IsValid() {
			addrs = []netip.Addr{isolated}
		}
		c.lockedServeOn(addrs, c.ThirdParty)
	}
	// Third party returns to its standard addresses.
	c.lockedSetA(c.ThirdParty, c.thirdPartyAddrs...)
}

// ExitExperiment reverts to baseline.
func (c *CDN) ExitExperiment() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.phase = PhaseBaseline
	for _, z := range c.zones {
		if z.Treatment != TreatmentNone {
			c.lockedSetA(z.Host, z.Addrs...)
		}
	}
	c.lockedSetA(c.ThirdParty, c.thirdPartyAddrs...)
}

// --- browser.Environment implementation ---

// Lookup resolves a hostname against the CDN's A records, as LookupTTL.
func (c *CDN) Lookup(host string) ([]netip.Addr, error) {
	addrs, _, err := c.LookupTTL(host)
	return addrs, err
}

// LookupTTL implements browser.TTLLookuper: host's A records and their
// TTL (0 when it has none), with names matched as a DNS authority
// matches them; an unknown host is NXDOMAIN. The slice is the CDN's own
// and read-only: copy it before changing it. It keeps its contents,
// because every write to the records installs a fresh slice.
func (c *CDN) LookupTTL(host string) ([]netip.Addr, uint32, error) {
	c.mu.Lock()
	addrs, ok := c.records[host]
	if !ok {
		addrs, ok = c.records[dnsKey(host)]
	}
	c.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("cdn: DNS rcode 3 for %s", host)
	}
	if len(addrs) == 0 {
		return nil, 0, nil
	}
	return addrs, recordTTL, nil
}

// CertSANs returns the SAN list served for an SNI of host.
func (c *CDN) CertSANs(host string, ip netip.Addr) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if z, ok := c.zones[host]; ok {
		return z.SANs
	}
	if host == c.ThirdParty {
		return c.thirdPartySANs
	}
	return nil
}

// OriginSet returns the ORIGIN frame content for a connection opened to
// host during the current phase: experiment zones advertise the third
// party, control zones the unused control name, per the §5.3 design.
func (c *CDN) OriginSet(host string, ip netip.Addr) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase != PhaseOrigin {
		return nil
	}
	z, ok := c.zones[host]
	if !ok {
		return nil
	}
	switch z.Treatment {
	case TreatmentExperiment:
		return c.originExperiment
	case TreatmentControl:
		return c.originControl
	default:
		return nil
	}
}

// SupportsH3 implements browser.AltSvcer: the CDN's termination process
// speaks QUIC at every edge, so HTTP/3 is advertised for every hosted
// name — registered zones and the third party — and for nothing else.
func (c *CDN) SupportsH3(host string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.zones[host]; ok {
		return true
	}
	return host == c.ThirdParty
}

// Reachable reports whether the server at ip authoritatively serves
// host (the 421 check).
func (c *CDN) Reachable(host string, ip netip.Addr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.ipServes[ip]
	return ok && m[host]
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func firstLabelParent(host string) string {
	if i := strings.IndexByte(host, '.'); i >= 0 {
		return host[i+1:]
	}
	return host
}
