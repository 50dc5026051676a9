package cdn

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"respectorigin/internal/certs"
	"respectorigin/internal/lazyrand"
)

// tableCDN is the CDN's state as it was kept before the read path moved
// to a published view: mutable tables written at every step — an A-record
// map, a zone map read live and an address → served-hosts map that only
// grows. It is the oracle the view's derived answers are held to.
type tableCDN struct {
	ThirdParty, ControlName string

	zones   map[string]*Zone
	records map[string][]netip.Addr
	phase   Phase

	alignedAddr                     netip.Addr
	thirdPartyA                     []netip.Addr
	thirdPartySANs                  []string
	originExperiment, originControl []string
	ipServes                        map[netip.Addr]map[string]bool
}

func newTable() *tableCDN {
	controlName := certs.EqualLengthControlName(thirdParty, 2)
	third := []netip.Addr{thirdPartyAddr}
	t := &tableCDN{
		ThirdParty:       thirdParty,
		ControlName:      controlName,
		zones:            make(map[string]*Zone),
		records:          make(map[string][]netip.Addr),
		alignedAddr:      alignedAddr,
		thirdPartyA:      third,
		thirdPartySANs:   []string{thirdParty, "*." + firstLabelParent(thirdParty)},
		originExperiment: []string{thirdParty},
		originControl:    []string{controlName},
		ipServes:         make(map[netip.Addr]map[string]bool),
	}
	t.addA(thirdParty, third)
	t.serveOn(third, thirdParty)
	return t
}

func (c *tableCDN) AddZone(host string, addrs ...netip.Addr) *Zone {
	z := &Zone{Host: host, SANs: []string{host}, Addrs: addrs, ThirdPartyPools: 1}
	c.zones[host] = z
	c.addA(host, addrs)
	c.serveOn(addrs, host)
	return z
}

func (c *tableCDN) serveOn(addrs []netip.Addr, host string) {
	for _, a := range addrs {
		m, ok := c.ipServes[a]
		if !ok {
			m = make(map[string]bool)
			c.ipServes[a] = m
		}
		m[host] = true
	}
}

func (c *tableCDN) addA(host string, addrs []netip.Addr) {
	if len(addrs) == 0 {
		return
	}
	key := dnsKey(host)
	old := c.records[key]
	c.records[key] = append(old[:len(old):len(old)], addrs...)
}

func (c *tableCDN) setA(host string, addrs ...netip.Addr) {
	c.records[dnsKey(host)] = append([]netip.Addr(nil), addrs...)
}

func (c *tableCDN) ReissueCertificates() int {
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

func (c *tableCDN) EnterPhaseIP() {
	c.phase = PhaseIP
	for _, z := range c.zones {
		if z.Treatment == treatmentNone {
			continue
		}
		c.setA(z.Host, c.alignedAddr)
		c.serveOn([]netip.Addr{c.alignedAddr}, z.Host)
	}
	c.setA(c.ThirdParty, c.alignedAddr)
	c.serveOn([]netip.Addr{c.alignedAddr}, c.ThirdParty)
}

func (c *tableCDN) EnterPhaseOrigin(isolated netip.Addr) {
	c.phase = PhaseOrigin
	for _, z := range c.zones {
		if z.Treatment == treatmentNone {
			continue
		}
		if isolated.IsValid() {
			c.setA(z.Host, isolated)
			c.serveOn([]netip.Addr{isolated}, z.Host)
		} else {
			c.setA(z.Host, z.Addrs...)
		}
		addrs := z.Addrs
		if isolated.IsValid() {
			addrs = []netip.Addr{isolated}
		}
		c.serveOn(addrs, c.ThirdParty)
	}
	c.setA(c.ThirdParty, c.thirdPartyA...)
}

func (c *tableCDN) ExitExperiment() {
	c.phase = phaseBaseline
	for _, z := range c.zones {
		if z.Treatment != treatmentNone {
			c.setA(z.Host, z.Addrs...)
		}
	}
	c.setA(c.ThirdParty, c.thirdPartyA...)
}

func (c *tableCDN) LookupTTL(host string) ([]netip.Addr, uint32, error) {
	addrs, ok := c.records[host]
	if !ok {
		addrs, ok = c.records[dnsKey(host)]
	}
	if !ok {
		return nil, 0, fmt.Errorf("cdn: DNS rcode 3 for %s", host)
	}
	if len(addrs) == 0 {
		return nil, 0, nil
	}
	return addrs, recordTTL, nil
}

func (c *tableCDN) CertSANs(host string, ip netip.Addr) []string {
	if z, ok := c.zones[host]; ok {
		return z.SANs
	}
	if host == c.ThirdParty {
		return c.thirdPartySANs
	}
	return nil
}

func (c *tableCDN) OriginSet(host string, ip netip.Addr) []string {
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

func (c *tableCDN) SupportsH3(host string) bool {
	if _, ok := c.zones[host]; ok {
		return true
	}
	return host == c.ThirdParty
}

func (c *tableCDN) Reachable(host string, ip netip.Addr) bool {
	m, ok := c.ipServes[ip]
	return ok && m[host]
}

// twin applies every write to a CDN and to its table oracle, and after
// each one holds all six read methods of the CDN to the oracle's answers
// for every hosted name, an unknown one and odd spellings, against every
// address either hands out.
type twin struct {
	t    *testing.T
	c    *CDN
	tab  *tableCDN
	step int

	names []string
	addrs []netip.Addr
}

func newTwin(t *testing.T, cfg Config, extraAddrs ...netip.Addr) *twin {
	tw := &twin{t: t, c: New(cfg), tab: newTable()}
	tw.names = append(tw.names, tw.c.ThirdParty, "nowhere.example", strings.ToUpper(tw.c.ThirdParty), tw.c.ThirdParty+".")
	tw.addrs = append(append(tw.addrs, tw.tab.thirdPartyA...), tw.tab.alignedAddr)
	tw.addrs = append(tw.addrs, extraAddrs...)
	tw.check("new")
	return tw
}

// addZone registers host on both and returns both zones.
func (tw *twin) addZone(host string, addrs ...netip.Addr) (z, oracle *Zone) {
	z, oracle = tw.c.AddZone(host, addrs...), tw.tab.AddZone(host, addrs...)
	if !slices.Contains(tw.names, host) {
		tw.names = append(tw.names, host, strings.ToUpper(host)+".", " "+host+" ")
	}
	for _, a := range addrs {
		if !slices.Contains(tw.addrs, a) {
			tw.addrs = append(tw.addrs, a)
		}
	}
	tw.check("AddZone " + host)
	return z, oracle
}

// cdnWriter is the write side CDN and tableCDN share.
type cdnWriter interface {
	ReissueCertificates() int
	EnterPhaseIP()
	EnterPhaseOrigin(netip.Addr)
	ExitExperiment()
}

// do applies one write to both and checks.
func (tw *twin) do(step string, write func(c cdnWriter)) {
	write(tw.c)
	write(tw.tab)
	tw.check(step)
}

func (tw *twin) check(step string) {
	t := tw.t
	t.Helper()
	tw.step++
	if got, want := tw.c.phase(), tw.tab.phase; got != want {
		t.Fatalf("step %d (%s): Phase = %v, the table says %v", tw.step, step, got, want)
	}
	for _, name := range tw.names {
		got, gotTTL, gotErr := tw.c.LookupTTL(name)
		want, wantTTL, wantErr := tw.tab.LookupTTL(name)
		if !slices.Equal(got, want) || gotTTL != wantTTL || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("step %d (%s): LookupTTL(%q) = %v, %d, %v; the table says %v, %d, %v",
				tw.step, step, name, got, gotTTL, gotErr, want, wantTTL, wantErr)
		}
		if got, want := tw.c.SupportsH3(name), tw.tab.SupportsH3(name); got != want {
			t.Fatalf("step %d (%s): SupportsH3(%q) = %v, the table says %v", tw.step, step, name, got, want)
		}
		for _, ip := range tw.addrs {
			if got, want := tw.c.CertSANs(name, ip), tw.tab.CertSANs(name, ip); !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): CertSANs(%q, %v) = %v, the table says %v", tw.step, step, name, ip, got, want)
			}
			if got, want := tw.c.OriginSet(name, ip), tw.tab.OriginSet(name, ip); !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): OriginSet(%q, %v) = %v, the table says %v", tw.step, step, name, ip, got, want)
			}
			if got, want := tw.c.Reachable(name, ip), tw.tab.Reachable(name, ip); got != want {
				t.Fatalf("step %d (%s): Reachable(%q, %v) = %v, the table says %v", tw.step, step, name, ip, got, want)
			}
		}
	}
}

// phaseSequence is every phase change report makes on one deployment,
// in cdnsim -phase all order, then the protocol sweep's and an ORIGIN
// phase on the zones' own addresses.
func (tw *twin) phaseSequence(isolated netip.Addr) {
	enterIP := func(c cdnWriter) { c.EnterPhaseIP() }
	enterOrigin := func(c cdnWriter) { c.EnterPhaseOrigin(isolated) }
	enterOwn := func(c cdnWriter) { c.EnterPhaseOrigin(netip.Addr{}) }
	exit := func(c cdnWriter) { c.ExitExperiment() }
	for _, s := range []struct {
		name  string
		write func(cdnWriter)
	}{
		{"figure 7a: enter", enterIP}, {"figure 7a: exit", exit},
		{"passive: enter", enterIP}, {"passive: exit", exit},
		{"figure 7b: enter", enterOrigin}, {"figure 7b: exit", exit},
		{"figure 8: enter", enterOrigin}, {"figure 8: window ends", exit}, {"figure 8: exit", exit},
		{"figure 9: enter", enterOrigin}, {"figure 9: exit", exit},
		{"proto sweep: enter", enterIP}, {"proto sweep: exit", exit},
		{"origin on own addresses: enter", enterOwn}, {"origin on own addresses: exit", exit},
	} {
		tw.do(s.name, s.write)
	}
}

// The view's derived answers are the tables' answers, exactly: after
// every write SetupExperiment makes, then every phase change report
// makes; and after every write loadgen's CDN setup makes, then its phase.
func TestViewMatchesTable(t *testing.T) {
	isolated := netip.MustParseAddr("104.19.99.99")

	// SetupExperiment's writes, step by step, from its own draws.
	cfg := DefaultExperimentConfig()
	cfg.SampleSize, cfg.Seed = 60, 5
	tw := newTwin(t, Config{SampleRate: 1, Seed: cfg.Seed}, isolated)
	rng := lazyrand.New(cfg.Seed)
	var mirrored []*Zone
	for i := 0; i < cfg.SampleSize; i++ {
		if rng.Float64() < subpageOnlyFrac {
			continue
		}
		z, oracle := tw.addZone(fmt.Sprintf("www.sample-%d.example", i), netip.AddrFrom4([4]byte{104, 18, byte(i >> 8), byte(i)}))
		z.Treatment = TreatmentControl
		if rng.Float64() < 0.5 {
			z.Treatment = TreatmentExperiment
		}
		oracle.Treatment = z.Treatment
		tw.check("treatment of " + z.Host)
		z.UsesAnonymousFetch = rng.Float64() < anonymousFrac
		z.Churned = rng.Float64() < churnFrac
		z.ThirdPartyPools = SamplePools(rng)
		mirrored = append(mirrored, z)
	}
	tw.do("reissue", func(c cdnWriter) { c.ReissueCertificates() })
	// The mirror is SetupExperiment's: the same zones, field for field.
	real := SetupExperiment(New(Config{SampleRate: 1, Seed: cfg.Seed}), cfg).SampleZones
	if len(real) != len(mirrored) {
		t.Fatalf("SetupExperiment kept %d zones, the mirror %d", len(real), len(mirrored))
	}
	for i := range real {
		a, b := *real[i], *mirrored[i]
		if a.Host != b.Host || a.Treatment != b.Treatment || !slices.Equal(a.SANs, b.SANs) || !slices.Equal(a.Addrs, b.Addrs) ||
			a.UsesAnonymousFetch != b.UsesAnonymousFetch || a.Churned != b.Churned || a.ThirdPartyPools != b.ThirdPartyPools {
			t.Fatalf("zone %d: SetupExperiment made %+v, the mirror %+v", i, a, b)
		}
	}
	tw.phaseSequence(isolated)

	// loadgen's buildCDN: alternating treatments, reissue, one phase.
	for _, phase := range []Phase{PhaseIP, PhaseOrigin} {
		loadIsolated := netip.AddrFrom4([4]byte{104, 19, 0, 1})
		tw := newTwin(t, Config{Seed: 1}, loadIsolated)
		for i := 0; i < 24; i++ {
			z, oracle := tw.addZone(fmt.Sprintf("www.zone-%d.example", i), netip.AddrFrom4([4]byte{104, 18, byte(i >> 8), byte(i)}))
			z.Treatment = TreatmentControl
			if i%2 == 0 {
				z.Treatment = TreatmentExperiment
			}
			oracle.Treatment = z.Treatment
			tw.check("treatment of " + z.Host)
		}
		tw.do("reissue", func(c cdnWriter) { c.ReissueCertificates() })
		if phase == PhaseIP {
			tw.do("enter ip", func(c cdnWriter) { c.EnterPhaseIP() })
		} else {
			tw.do("enter origin", func(c cdnWriter) { c.EnterPhaseOrigin(loadIsolated) })
		}
	}
}

// Publishing a phase copies the view's few words and shares the host
// table, so it allocates the same few objects at any zone count.
func TestPhasePublishAllocsConstant(t *testing.T) {
	isolated := netip.MustParseAddr("104.19.99.99")
	allocs := func(zones int) float64 {
		c := New(Config{})
		for i := 0; i < zones; i++ {
			c.AddZone(fmt.Sprintf("www.zone-%d.example", i), netip.AddrFrom4([4]byte{104, 18, byte(i >> 8), byte(i)})).Treatment = TreatmentExperiment
		}
		c.ReissueCertificates()
		return testing.AllocsPerRun(20, func() {
			c.EnterPhaseIP()
			c.ExitExperiment()
			c.EnterPhaseOrigin(isolated)
			c.ExitExperiment()
		})
	}
	small, large := allocs(10), allocs(3000)
	if small != large || large > 8 {
		t.Errorf("four phase changes allocated %v objects over 10 zones and %v over 3000; want the same few", small, large)
	}
}
