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
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"respectorigin/internal/certs"
)

// Phase is the deployment phase.
type Phase int

// Phases of the §5 deployment.
const (
	// phaseBaseline: no changes; every hostname on its own addresses.
	phaseBaseline Phase = iota
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
	case phaseBaseline:
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
	treatmentNone Treatment = iota
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

// Zone is one customer domain on the CDN. The CDN reads SANs, Treatment
// and Addrs when it builds its host table (ReissueCertificates, or the
// first phase change after an AddZone); a later write is not seen.
type Zone struct {
	Host      string
	SANs      []string // certificate SAN list currently served
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

	// records are the A records every AddZone of Host added, in order;
	// nil when none did.
	records []netip.Addr
}

// CDN is the simulated provider. Its read methods — Lookup, LookupTTL,
// CertSANs, OriginSet, SupportsH3, Reachable and Phase — answer from one
// published view and take no lock; the writers serialise on mu and
// publish a new view.
type CDN struct {
	mu sync.Mutex
	v  atomic.Pointer[view]

	// ThirdParty is the popular shared domain (cdnjs-like).
	ThirdParty string
	// ControlName is the equal-length unused domain added to control
	// certificates (Figure 6).
	ControlName string

	// zones is the zone registry, under mu; stale marks zones registered
	// since the view's host table was built from it.
	zones map[string]*Zone
	stale bool

	// aligned is the one-address answer set naming alignedAddr.
	aligned []netip.Addr
	// third is the third party's host-table entry: its standard anycast
	// addresses and its certificate.
	third *hostEntry
	// originExperiment and originControl are the two ORIGIN frame
	// contents of §5.3, built once and handed out read-only.
	originExperiment, originControl []string

	pipeline *LogPipeline
}

// view is one published state of the CDN. Nothing in it, and nothing it
// points to, is written after it is published, so a reader holding it
// needs no lock and every slice it hands out keeps its contents.
//
// A phase change copies the view's few words and changes the phase and
// history fields; the host table is shared. Every answer that depends on
// the phase — A records, which addresses serve a host, origin sets — is
// derived from (phase, history, host entry). The history mirrors the
// deployment's serving configuration, which only ever grew: an address
// that served a host in an earlier phase still serves it.
type view struct {
	phase Phase

	// hosts is the host table, built from the zone registry; added holds
	// the zones registered since, newest first.
	hosts map[string]*hostEntry
	added *hostEntry
	// treated counts the treated zones in hosts, and treatedAddrs holds
	// their own addresses.
	treated      int
	treatedAddrs map[netip.Addr]bool

	// isolated answers the treated zones' lookups while an ORIGIN phase
	// has them on an isolated address (nil otherwise).
	isolated []netip.Addr

	// moved: a phase has been entered or exited, so treated zones answer
	// their own Addrs at baseline and no zone may be added.
	moved bool
	// alignedServes: an IP phase ran, so the aligned address serves the
	// treated zones and the third party.
	alignedServes bool
	// ownServeThird: an ORIGIN phase ran on the zones' own addresses, so
	// treatedAddrs serve the third party.
	ownServeThird bool
	// isolatedServe: each isolated address an ORIGIN phase used serves
	// the treated zones and the third party.
	isolatedServe []netip.Addr
}

// hostEntry is what the view knows of one hosted name.
type hostEntry struct {
	host       string
	thirdParty bool
	treatment  Treatment
	sans       []string
	// records are the name's A records before any phase change (nil:
	// unknown); own is a treated zone's Addrs, which it answers after one.
	records, own []netip.Addr
	// next is the zone registered before this one, in view.added.
	next *hostEntry
}

// entry returns host's entry, or nil for a name the CDN does not host.
func (v *view) entry(host string) *hostEntry {
	for e := v.added; e != nil; e = e.next {
		if e.host == host {
			return e
		}
	}
	return v.hosts[host]
}

// thirdParty is the popular shared domain every CDN hosts, under its
// canonical name.
const thirdParty = "cdnjs.cloudflare.com"

// thirdPartyAddr is the third party's own A record, and alignedAddr the
// single new address the treated zones and the third party share during
// PhaseIP.
var (
	thirdPartyAddr = netip.AddrFrom4([4]byte{104, 16, 9, 9})
	alignedAddr    = netip.AddrFrom4([4]byte{104, 16, 200, 1})
)

// Config for New.
type Config struct {
	SampleRate float64 // log sampling, default 0.01
	Seed       int64
}

// New creates a CDN hosting the third-party domain.
func New(c Config) *CDN {
	if c.SampleRate == 0 {
		c.SampleRate = 0.01
	}
	controlName := certs.EqualLengthControlName(thirdParty, 2)
	cdn := &CDN{
		ThirdParty:  thirdParty,
		ControlName: controlName,
		zones:       make(map[string]*Zone),
		aligned:     []netip.Addr{alignedAddr},
		third: &hostEntry{
			host:       thirdParty,
			thirdParty: true,
			sans:       []string{thirdParty, "*." + firstLabelParent(thirdParty)},
			records:    []netip.Addr{thirdPartyAddr},
		},
		originExperiment: []string{thirdParty},
		originControl:    []string{controlName},
		pipeline:         newLogPipeline(c.SampleRate, c.Seed),
	}
	cdn.v.Store(&view{hosts: map[string]*hostEntry{thirdParty: cdn.third}})
	return cdn
}

// Pipeline returns the CDN's logging pipeline.
func (c *CDN) Pipeline() *LogPipeline { return c.pipeline }

// phase returns the current deployment phase.
func (c *CDN) phase() Phase { return c.v.Load().phase }

// AddZone registers a customer zone with its serving addresses and an
// initial certificate covering just the zone host. Registering a host
// again replaces its zone and adds to its A records, as a DNS authority
// adds records. Zones are registered before the first phase change,
// under canonical names other than the third party's; anything else
// panics.
func (c *CDN) AddZone(host string, addrs ...netip.Addr) *Zone {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.v.Load()
	if v.moved || host == c.ThirdParty || dnsKey(host) != host {
		panic(fmt.Sprintf("cdn: AddZone(%q) after a phase change, for the third party, or under a non-canonical name", host))
	}
	z := &Zone{
		Host:            host,
		SANs:            []string{host},
		Addrs:           addrs,
		ThirdPartyPools: 1,
	}
	if old := c.zones[host]; old != nil {
		z.records = old.records
	}
	if len(addrs) > 0 {
		z.records = append(z.records[:len(z.records):len(z.records)], addrs...)
	}
	c.zones[host] = z
	c.stale = true
	nv := *v
	nv.added = &hostEntry{host: host, sans: z.SANs, records: z.records, next: v.added}
	c.v.Store(&nv)
	return z
}

// lockedBuild rebuilds v's host table from the zone registry, the one
// step whose cost grows with the zone count.
func (c *CDN) lockedBuild(v *view) {
	entries := make([]hostEntry, 0, len(c.zones))
	v.hosts = make(map[string]*hostEntry, len(c.zones)+1)
	v.hosts[c.ThirdParty] = c.third
	v.added = nil
	v.treated = 0
	v.treatedAddrs = make(map[netip.Addr]bool)
	for host, z := range c.zones {
		e := hostEntry{host: host, treatment: z.Treatment, sans: z.SANs, records: z.records}
		if z.Treatment != treatmentNone {
			e.own = slices.Clone(z.Addrs)
			v.treated++
			for _, a := range z.Addrs {
				v.treatedAddrs[a] = true
			}
		}
		entries = append(entries, e)
		v.hosts[host] = &entries[len(entries)-1]
	}
	c.stale = false
}

// publish applies one phase change: it copies the current view, builds
// the host table first if zones were registered since the last build,
// and stores the changed copy.
func (c *CDN) publish(change func(v *view)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nv := *c.v.Load()
	if c.stale {
		c.lockedBuild(&nv)
	}
	nv.moved = true
	change(&nv)
	c.v.Store(&nv)
}

// recordTTL is the TTL, in seconds, of every A record the CDN serves.
const recordTTL = 300

// dnsKey is a name's canonical spelling: trimmed, lower-case, without
// the trailing dot.
func dnsKey(host string) string {
	return strings.TrimSuffix(strings.ToLower(strings.TrimSpace(host)), ".")
}

// ReissueCertificates performs the §5.1 certificate setup: experiment
// zones gain the third-party domain in their SANs; control zones gain
// the byte-equalized unused control name. Returns how many were
// modified. It is the last write of a setup, so it builds the host
// table the deployment then reads.
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
	nv := *c.v.Load()
	c.lockedBuild(&nv)
	c.v.Store(&nv)
	return n
}

// EnterPhaseIP deploys the §5.2 IP-coalescing setup: every treated
// zone and the third party move onto the single aligned address, and
// the web servers are configured to answer for the third party even
// when the TLS SNI differs from the Host (domain-fronting checks).
func (c *CDN) EnterPhaseIP() {
	c.publish(func(v *view) {
		v.phase = PhaseIP
		v.isolated = nil
		v.alignedServes = true
	})
}

// EnterPhaseOrigin deploys the §5.3 ORIGIN setup: DNS reverts to
// standard traffic engineering (restoring the third party's SLA) and
// the ORIGIN-capable termination process takes over for sample zones.
// Sample zones move to an isolated anycast address for observability.
// Zone edges answer for the third party: the ORIGIN frame directs
// clients there and the request pipeline routes it.
func (c *CDN) EnterPhaseOrigin(isolated netip.Addr) {
	c.publish(func(v *view) {
		v.phase = PhaseOrigin
		v.isolated = nil
		if !isolated.IsValid() {
			v.ownServeThird = true
			return
		}
		v.isolated = []netip.Addr{isolated}
		if v.treated > 0 && !slices.Contains(v.isolatedServe, isolated) {
			v.isolatedServe = append(v.isolatedServe[:len(v.isolatedServe):len(v.isolatedServe)], isolated)
		}
	})
}

// ExitExperiment reverts to baseline.
func (c *CDN) ExitExperiment() {
	c.publish(func(v *view) {
		v.phase = phaseBaseline
		v.isolated = nil
	})
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
// because a view is never written after it is published.
func (c *CDN) LookupTTL(host string) ([]netip.Addr, uint32, error) {
	v := c.v.Load()
	e := v.entry(host)
	if e == nil {
		e = v.entry(dnsKey(host))
	}
	var addrs []netip.Addr
	known := e != nil
	switch {
	case !known:
	case e.thirdParty && v.phase == PhaseIP:
		addrs = c.aligned
	case e.treatment == treatmentNone:
		addrs, known = e.records, e.records != nil
	case v.phase == PhaseIP:
		addrs = c.aligned
	case v.isolated != nil:
		addrs = v.isolated
	case v.moved:
		addrs = e.own
	default:
		addrs, known = e.records, e.records != nil
	}
	if !known {
		return nil, 0, fmt.Errorf("cdn: DNS rcode 3 for %s", host)
	}
	if len(addrs) == 0 {
		return nil, 0, nil
	}
	return addrs, recordTTL, nil
}

// CertSANs returns the SAN list served for an SNI of host.
func (c *CDN) CertSANs(host string, ip netip.Addr) []string {
	if e := c.v.Load().entry(host); e != nil {
		return e.sans
	}
	return nil
}

// OriginSet returns the ORIGIN frame content for a connection opened to
// host during the current phase: experiment zones advertise the third
// party, control zones the unused control name, per the §5.3 design.
func (c *CDN) OriginSet(host string, ip netip.Addr) []string {
	v := c.v.Load()
	if v.phase != PhaseOrigin {
		return nil
	}
	e := v.entry(host)
	if e == nil {
		return nil
	}
	switch e.treatment {
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
	return c.v.Load().entry(host) != nil
}

// Reachable reports whether the server at ip authoritatively serves
// host (the 421 check): on an address AddZone (or New, for the third
// party) gave it, and on every address a phase moved it to or, for the
// third party, a phase had zone edges answer it on.
func (c *CDN) Reachable(host string, ip netip.Addr) bool {
	v := c.v.Load()
	e := v.entry(host)
	switch {
	case e == nil:
		return false
	case slices.Contains(e.records, ip):
		return true
	case !e.thirdParty && e.treatment == treatmentNone:
		return false
	case v.alignedServes && ip == alignedAddr, slices.Contains(v.isolatedServe, ip):
		return true
	default:
		return e.thirdParty && v.ownServeThird && v.treatedAddrs[ip]
	}
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
