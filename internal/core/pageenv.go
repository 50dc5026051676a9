package core

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"respectorigin/internal/browser"
	"respectorigin/internal/har"
)

// PageEnv presents one recorded page to a browser as its
// browser.Environment: DNS answers are the recorded answer sets,
// certificates the recorded SAN lists.
//
// Every hostname of the page belongs to one service, a set of hostnames
// whose servers are interchangeable: any current address of the service
// serves any of its hostnames. A service may advertise its hostnames in
// an ORIGIN frame, and may present the ideal certificate, which covers
// them all. What makes a service is the loader's decision — the origin
// AS (LoadByAS) or the site's own names (LoadFirstParty); Lookup,
// CertSANs, OriginSet and Reachable read only the table the loader left.
//
// One PageEnv serves page after page on the storage of the page before.
// The answer sets and certificates it returns may be kept; a service's
// hostname list (OriginSet, the ideal certificate) is valid until the
// next load. Not safe for concurrent use; pages are never modified.
type PageEnv struct {
	ids      map[string]int32 // hostname → index into names and hosts
	names    []string         // distinct hostnames in first-use order
	hosts    []envHost
	services []envService
	byASN    map[uint32]int32 // LoadByAS: origin AS → service
	bare     []string         // see bareCert
}

type envHost struct {
	addrs   []netip.Addr // current answer set
	sans    []string     // recorded certificate
	service int32
}

type envService struct {
	names     []string     // member hostnames in first-use order
	addrs     []netip.Addr // the members' current addresses
	origin    bool         // advertises names in an ORIGIN frame
	idealCert bool         // presents a certificate covering names
}

var _ browser.Environment = (*PageEnv)(nil)

// LoadByAS loads p with the services of the §4 model: hostnames served
// from one origin AS are one service (§4.1: every server in an AS can
// serve all content of that AS). No service advertises ORIGIN until
// Deploy.
func (env *PageEnv) LoadByAS(p *har.Page) {
	env.reset()
	for i := range p.Entries {
		e := &p.Entries[i]
		id, fresh := env.observe(e)
		if !fresh {
			continue
		}
		s, ok := env.byASN[e.ServerASN]
		if !ok {
			s = env.newService()
			env.byASN[e.ServerASN] = s
		}
		env.join(id, s)
	}
	env.finish()
}

// Deploy switches ORIGIN frames and ideal certificates on or off for
// every service of the loaded page: on is the §4 best-case deployment.
func (env *PageEnv) Deploy(on bool) {
	for i := range env.services {
		env.services[i].origin, env.services[i].idealCert = on, on
	}
}

// LoadFirstParty loads p as the site's operator could deploy ORIGIN
// alone: the first-party cluster — the page's host and every hostname
// under its apex — is one service advertising ORIGIN over the recorded
// certificates, and every other hostname is a service of its own. ORIGIN
// then merges shards with no address overlap, and cluster connections
// go stale (421) once Rehome moves the cluster.
func (env *PageEnv) LoadFirstParty(p *har.Page) {
	env.reset()
	apex := strings.TrimPrefix(p.Host, "www.")
	cluster := int32(-1)
	for i := range p.Entries {
		e := &p.Entries[i]
		id, fresh := env.observe(e)
		if !fresh {
			continue
		}
		h := e.Host
		if h != p.Host && !(len(h) > len(apex) && h[len(h)-len(apex)-1] == '.' && strings.HasSuffix(h, apex)) {
			env.join(id, env.newService())
			continue
		}
		if cluster < 0 {
			cluster = env.newService()
			env.services[cluster].origin = true
		}
		env.join(id, cluster)
	}
	env.finish()
}

func (env *PageEnv) reset() {
	if env.ids == nil {
		env.ids, env.byASN = map[string]int32{}, map[uint32]int32{}
	}
	clear(env.ids)
	clear(env.byASN)
	env.names = env.names[:0]
	env.hosts = env.hosts[:0]
	env.services = env.services[:0]
}

// observe interns the entry's hostname and keeps what the entry shows of
// it: the first answer set (failing that, the connected address) and the
// first certificate win. fresh reports the hostname's first entry.
func (env *PageEnv) observe(e *har.Entry) (id int32, fresh bool) {
	id, ok := env.ids[e.Host]
	if !ok {
		id = int32(len(env.hosts))
		env.ids[e.Host] = id
		env.names = append(env.names, e.Host)
		env.hosts = append(env.hosts, envHost{})
	}
	h := &env.hosts[id]
	if len(h.addrs) == 0 {
		if len(e.DNSAnswer) > 0 {
			h.addrs = e.DNSAnswer
		} else if e.ServerIP.IsValid() {
			h.addrs = []netip.Addr{e.ServerIP}
		}
	}
	if len(h.sans) == 0 {
		h.sans = e.CertSANs
	}
	return id, !ok
}

// newService adds an empty service, on the storage an earlier page's
// service left when there is one.
func (env *PageEnv) newService() int32 {
	n := len(env.services)
	if n < cap(env.services) {
		env.services = env.services[:n+1]
	} else {
		env.services = append(env.services, envService{})
	}
	s := &env.services[n]
	*s = envService{names: s.names[:0], addrs: s.addrs}
	return int32(n)
}

func (env *PageEnv) join(id, service int32) {
	env.hosts[id].service = service
	s := &env.services[service]
	s.names = append(s.names, env.names[id])
}

// finish completes a load once every host has its service.
func (env *PageEnv) finish() {
	for id := range env.hosts {
		if h := &env.hosts[id]; len(h.sans) == 0 {
			h.sans = env.bareCert(env.names[id])
		}
	}
	env.settle()
}

// settle gives every service the current addresses of its hosts.
func (env *PageEnv) settle() {
	for i := range env.services {
		env.services[i].addrs = env.services[i].addrs[:0]
	}
	for i := range env.hosts {
		s := &env.services[env.hosts[i].service]
		s.addrs = append(s.addrs, env.hosts[i].addrs...)
	}
}

// bareCert is the certificate of a host that recorded none, naming just
// the host. A warm cache keeps the SAN lists it is handed, so these are
// never rewritten: they are cut from blocks that are only appended to.
func (env *PageEnv) bareCert(host string) []string {
	if len(env.bare) == cap(env.bare) {
		env.bare = make([]string, 0, 256)
	}
	n := len(env.bare)
	env.bare = append(env.bare, host)
	return env.bare[n : n+1 : n+1]
}

// Rehome moves host onto a new answer set, a recorded re-resolution, and
// its service with it: the addresses the service left no longer serve
// it. An unknown host is ignored.
func (env *PageEnv) Rehome(host string, addrs []netip.Addr) {
	if h, _ := env.find(host); h != nil {
		h.addrs = addrs
		env.settle()
	}
}

// Hosts returns the page's distinct hostnames in first-use order; valid
// until the next load.
func (env *PageEnv) Hosts() []string { return env.names }

// find returns host's record and its service, nil for a hostname the
// page does not have.
func (env *PageEnv) find(host string) (*envHost, *envService) {
	id, ok := env.ids[host]
	if !ok {
		return nil, nil
	}
	h := &env.hosts[id]
	return h, &env.services[h.service]
}

// Lookup returns host's current answer set.
func (env *PageEnv) Lookup(host string) ([]netip.Addr, error) {
	h, _ := env.find(host)
	if h == nil {
		return nil, fmt.Errorf("core: %s is not a host of the page", host)
	}
	return h.addrs, nil
}

// CertSANs returns the certificate a server presents for host: the
// ideal one when its service deploys it, the recorded one otherwise.
func (env *PageEnv) CertSANs(host string, ip netip.Addr) []string {
	h, s := env.find(host)
	switch {
	case h == nil:
		return nil
	case s.idealCert:
		return s.names
	}
	return h.sans
}

// OriginSet returns the hostnames host's service advertises in its
// ORIGIN frame, nil when it sends none.
func (env *PageEnv) OriginSet(host string, ip netip.Addr) []string {
	if _, s := env.find(host); s != nil && s.origin {
		return s.names
	}
	return nil
}

// Reachable reports whether ip is a current address of host's service.
func (env *PageEnv) Reachable(host string, ip netip.Addr) bool {
	_, s := env.find(host)
	return s != nil && slices.Contains(s.addrs, ip)
}
