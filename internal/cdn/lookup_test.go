package cdn

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"respectorigin/internal/dns"
)

// authorityLookup answers host the way LookupTTL did when the CDN
// resolved through a dns.Authority: the A records of the authority's
// wire response in answer order, their minimum TTL, and a non-success
// rcode as the error.
func authorityLookup(a *dns.Authority, host string) ([]netip.Addr, uint32, error) {
	query, err := (&dns.Message{Questions: []dns.Question{{Name: host, Type: dns.TypeA, Class: dns.ClassINET}}}).Pack()
	if err != nil {
		return nil, 0, err
	}
	wire, err := a.HandleWire(query)
	if err != nil {
		return nil, 0, err
	}
	resp, err := dns.Unpack(wire)
	if err != nil {
		return nil, 0, err
	}
	if rcode := resp.Header.Rcode; rcode != dns.RcodeSuccess {
		return nil, 0, fmt.Errorf("cdn: DNS rcode %d for %s", rcode, host)
	}
	var addrs []netip.Addr
	var ttl uint32
	for _, rr := range resp.Answers {
		if rr.Type == dns.TypeA {
			addrs = append(addrs, rr.Addr)
			if ttl == 0 || rr.TTL < ttl {
				ttl = rr.TTL
			}
		}
	}
	return addrs, ttl, nil
}

// zoneFile is what the CDN used to write to its dns.Authority: each
// name's current A set. A name set to no addresses still exists.
type zoneFile map[string][]netip.Addr

// authority serves the zone file from a fresh dns.Authority.
func (z zoneFile) authority() *dns.Authority {
	a := dns.NewAuthority()
	for name, addrs := range z {
		a.AddA(name, addrs...)
	}
	return a
}

// The CDN's A records answer every lookup as the dns.Authority they
// replaced did. The same writes go to both — the zone file gets the
// calls the CDN used to make to its authority at each step — and after
// every step each zone host, the third party, an unknown name and odd
// spellings of hosted names get the same addresses in the same order,
// the same TTL and the same error from both.
func TestLookupMatchesAuthority(t *testing.T) {
	third := []netip.Addr{thirdPartyAddr}
	aligned, isolated := alignedAddr, ip("104.19.99.99")

	// Nine zones: every treatment with one, two and three addresses. A
	// zone registered again adds addresses to its name; a zone with none
	// is unknown until a phase gives it one, and answers empty after.
	hosts := []string{"www.bare.example"}
	for i := 0; i < 9; i++ {
		hosts = append(hosts, fmt.Sprintf("www.zone-%d.example", i))
	}
	names := append(slices.Clone(hosts), "cdnjs.cloudflare.com", "nowhere.example",
		"CDNJS.Cloudflare.COM", "cdnjs.cloudflare.com.", "WWW.Zone-8.Example.", " www.zone-5.example ")

	c := New(Config{})
	zone := zoneFile{c.ThirdParty: third}
	check := func(step string) {
		t.Helper()
		a := zone.authority()
		for _, name := range names {
			got, gotTTL, gotErr := c.LookupTTL(name)
			want, wantTTL, wantErr := authorityLookup(a, name)
			if !slices.Equal(got, want) || gotTTL != wantTTL || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s: LookupTTL(%q) = %v, ttl %d, %v; the authority answers %v, ttl %d, %v",
					step, name, got, gotTTL, gotErr, want, wantTTL, wantErr)
			}
		}
	}
	check("new")

	treatments := []Treatment{treatmentNone, TreatmentControl, TreatmentExperiment}
	for i, host := range hosts[1:] {
		addrs := make([]netip.Addr, i%3+1)
		for j := range addrs {
			addrs[j] = netip.AddrFrom4([4]byte{104, 18, byte(i), byte(j + 1)})
		}
		c.AddZone(host, addrs...).Treatment = treatments[i/3]
		zone[host] = addrs
	}
	c.AddZone("www.zone-0.example", ip("104.18.9.1"))
	zone["www.zone-0.example"] = append(zone["www.zone-0.example"], ip("104.18.9.1"))
	c.AddZone("www.bare.example").Treatment = TreatmentExperiment
	check("zones")
	c.ReissueCertificates()
	check("reissue")

	// The writes the CDN made to its authority in each phase.
	zones := c.zoneSnapshot()
	enterIP := func() {
		for _, z := range zones {
			if z.Treatment != treatmentNone {
				zone[z.Host] = []netip.Addr{aligned}
			}
		}
		zone[c.ThirdParty] = []netip.Addr{aligned}
	}
	enterOrigin := func(isolated netip.Addr) {
		for _, z := range zones {
			switch {
			case z.Treatment == treatmentNone:
			case isolated.IsValid():
				zone[z.Host] = []netip.Addr{isolated}
			default:
				zone[z.Host] = z.Addrs
			}
		}
		zone[c.ThirdParty] = third
	}
	exit := func() {
		for _, z := range zones {
			if z.Treatment != treatmentNone {
				zone[z.Host] = z.Addrs
			}
		}
		zone[c.ThirdParty] = third
	}

	c.EnterPhaseIP()
	enterIP()
	check("ip phase")
	c.ExitExperiment()
	exit()
	check("exit from ip phase")
	c.EnterPhaseOrigin(isolated)
	enterOrigin(isolated)
	check("origin phase, isolated address")
	c.ExitExperiment()
	exit()
	check("exit from origin phase, isolated address")
	c.EnterPhaseOrigin(netip.Addr{})
	enterOrigin(netip.Addr{})
	check("origin phase, own addresses")
	c.ExitExperiment()
	exit()
	check("exit from origin phase, own addresses")
}

// Reads racing phase changes (run under -race): every read method
// answers from one whole view while another goroutine cycles the phases.
// A lookup is one whole set its name may have — its own, the aligned or
// the isolated address — never empty and never a mix, and an answer held
// across phase changes keeps its contents. Certificates never change,
// origin sets are the zone's or none, and an address that has served a
// host keeps serving it.
func TestLookupRacingPhaseChanges(t *testing.T) {
	third := []netip.Addr{thirdPartyAddr}
	aligned, isolated := alignedAddr, ip("104.19.99.99")
	c := New(Config{})
	treated := c.AddZone("www.treated.example", ip("104.18.0.1"), ip("104.18.0.2"))
	treated.Treatment = TreatmentExperiment
	untreated := c.AddZone("www.untreated.example", ip("104.18.0.3"))
	type legal struct {
		lookups [][]netip.Addr
		origins [][]string // answers OriginSet may give
		always  []netip.Addr
		never   []netip.Addr // addresses that never serve the name
	}
	every := append([]netip.Addr{aligned, isolated, untreated.Addrs[0]}, append(third, treated.Addrs...)...)
	names := map[string]legal{
		treated.Host:   {[][]netip.Addr{treated.Addrs, {aligned}, {isolated}}, [][]string{nil, {c.ThirdParty}}, treated.Addrs, append(slices.Clone(third), untreated.Addrs...)},
		untreated.Host: {[][]netip.Addr{untreated.Addrs}, [][]string{nil}, untreated.Addrs, append([]netip.Addr{aligned, isolated}, append(slices.Clone(third), treated.Addrs...)...)},
		c.ThirdParty:   {[][]netip.Addr{third, {aligned}}, [][]string{nil}, third, append(slices.Clone(untreated.Addrs), treated.Addrs...)},
	}
	sans := map[string][]string{}
	for host := range names {
		sans[host] = c.CertSANs(host, netip.Addr{})
	}

	var cycles atomic.Int64
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.EnterPhaseIP()
			c.ExitExperiment()
			c.EnterPhaseOrigin(isolated)
			c.ExitExperiment()
			cycles.Add(1)
		}
	}()
	for host, want := range names {
		readers.Add(1)
		go func() {
			defer readers.Done()
			held, _ := c.Lookup(host)
			kept, from := slices.Clone(held), cycles.Load()
			served := map[netip.Addr]bool{}
			for i := 0; i < 2000 || cycles.Load() < from+20; i++ {
				addrs, err := c.Lookup(host)
				if err != nil || !slices.ContainsFunc(want.lookups, func(s []netip.Addr) bool { return slices.Equal(s, addrs) }) {
					t.Errorf("lookup %d of %s racing phase changes answered %v, %v", i, host, addrs, err)
					return
				}
				if got := c.CertSANs(host, netip.Addr{}); !slices.Equal(got, sans[host]) {
					t.Errorf("CertSANs(%s) racing phase changes = %v, want %v", host, got, sans[host])
					return
				}
				if got := c.OriginSet(host, netip.Addr{}); !slices.ContainsFunc(want.origins, func(s []string) bool { return slices.Equal(s, got) }) {
					t.Errorf("OriginSet(%s) racing phase changes = %v", host, got)
					return
				}
				if !c.SupportsH3(host) || c.phase() > PhaseOrigin {
					t.Errorf("%s: SupportsH3 false or phase %v racing phase changes", host, c.phase())
					return
				}
				for _, a := range every {
					ok := c.Reachable(host, a)
					switch {
					case !ok && (served[a] || slices.Contains(want.always, a)):
						t.Errorf("%s stopped being served on %v racing phase changes", host, a)
						return
					case ok && slices.Contains(want.never, a):
						t.Errorf("%s served on %v racing phase changes", host, a)
						return
					}
					served[a] = ok
				}
			}
			if !slices.Equal(held, kept) {
				t.Errorf("%s: an answer held across %d phase cycles changed from %v to %v", host, cycles.Load()-from, kept, held)
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
