package browser

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// poolEnv builds the one-host environment the cap tests revolve
// around: www.example.com at ipA with a wildcard certificate.
func poolEnv(ipA netip.Addr) *fakeEnv {
	return &fakeEnv{
		answers: map[string][]netip.Addr{
			"www.example.com": {ipA},
		},
		sans: map[string][]string{
			"www.example.com": {"www.example.com", "*.example.com"},
		},
	}
}

// The regression the capped pool exists to fix: after a CDN migration,
// the 421-fallback path opens a replacement connection while the stale
// connection is still pooled. Uncapped, both linger — DropConns(host)
// reports 2, double-counting what is logically one live connection.
// With MaxConnsPerHost=1 the stale socket must be evicted when the
// replacement opens: exactly one pooled connection (on the live
// address), one eviction, and DropConns returns 1.
func TestHostCapEvictsStaleConnOn421Fallback(t *testing.T) {
	ipA, ipB := ip("192.0.2.1"), ip("203.0.113.9")
	migrate := func(env *fakeEnv) {
		// The server moves to ipB; the answer still leaks the dead
		// address, so IP coalescing finds the stale conn and 421s.
		env.answers["www.example.com"] = []netip.Addr{ipB, ipA}
		env.reachable = map[string]bool{
			"www.example.com@" + ipA.String(): false,
		}
	}

	// Uncapped baseline: the historical leak, documented.
	b := New(PolicyChromium)
	env := poolEnv(ipA)
	b.Request(env, "www.example.com")
	migrate(env)
	out := b.Request(env, "www.example.com")
	if out.Reason != reasonNew421 {
		t.Fatalf("migration revisit not a 421-fallback reconnect: %+v", out)
	}
	if n := b.DropConns("www.example.com"); n != 2 {
		t.Fatalf("uncapped pool after 421-fallback: DropConns = %d, want the documented leak of 2", n)
	}

	// Capped, coalescing enabled: the stale socket is evicted when the
	// replacement opens.
	b = &Browser{Policy: PolicyChromium, MaxConnsPerHost: 1}
	env = poolEnv(ipA)
	b.Request(env, "www.example.com")
	migrate(env)
	out = b.Request(env, "www.example.com")
	if out.Reason != reasonNew421 {
		t.Fatalf("capped migration revisit: %+v", out)
	}
	if got := len(b.Conns()); got != 1 {
		t.Fatalf("capped pool holds %d conns after 421-fallback, want 1", got)
	}
	if b.Conns()[0].IP != ipB {
		t.Fatalf("surviving conn pinned to %v, want the live address %v", b.Conns()[0].IP, ipB)
	}
	if b.TotalEvicted != 1 || b.TotalNewConn != 2 || b.Total421 != 1 {
		t.Fatalf("accounting: evicted=%d newconn=%d 421=%d, want 1/2/1",
			b.TotalEvicted, b.TotalNewConn, b.Total421)
	}
	if n := b.DropConns("www.example.com"); n != 1 {
		t.Fatalf("capped pool after 421-fallback: DropConns = %d, want 1 (no double-count)", n)
	}
}

// At the per-host cap, a request whose answer no longer overlaps the
// pooled connection's address set must not open a second socket when
// the pooled server still serves the host: the cap forces same-host
// multiplexing (Reused, not Coalesced — the carrying connection is the
// host's own).
func TestHostCapForcesSameHostMultiplexing(t *testing.T) {
	ipA, ipB := ip("192.0.2.1"), ip("203.0.113.9")
	b := &Browser{Policy: PolicyChromium, MaxConnsPerHost: 1}
	env := poolEnv(ipA)
	b.Request(env, "www.example.com")
	// A rotated answer with no overlap (Chromium kept only ipA), but
	// the original server is alive and well.
	env.answers["www.example.com"] = []netip.Addr{ipB}
	out := b.Request(env, "www.example.com")
	if out.Reason != reasonPoolCap || out.Got421 {
		t.Fatalf("capped revisit did not multiplex: %+v", out)
	}
	if out.Coalesced() {
		t.Fatalf("same-host multiplexing misreported as cross-host coalescing: %+v", out)
	}
	if b.TotalNewConn != 1 || len(b.Conns()) != 1 || b.TotalEvicted != 0 {
		t.Fatalf("accounting: newconn=%d pool=%d evicted=%d, want 1/1/0",
			b.TotalNewConn, len(b.Conns()), b.TotalEvicted)
	}
}

// Cross-host coalescing still works under a per-host cap of 1: the
// coalesced host rides another host's connection, which its own cap
// does not govern.
func TestHostCapDoesNotBlockCoalescing(t *testing.T) {
	b := &Browser{Policy: PolicyFirefox, MaxConnsPerHost: 1}
	env := twoHostEnv()
	b.Request(env, "www.example.com")
	out := b.Request(env, "static.example.com")
	if !out.Reused() || !out.Coalesced() {
		t.Fatalf("cap=1 broke cross-host coalescing: %+v", out)
	}
	if b.TotalNewConn != 1 || b.TotalEvicted != 0 {
		t.Fatalf("accounting: newconn=%d evicted=%d, want 1/0", b.TotalNewConn, b.TotalEvicted)
	}
}

// The total-pool cap evicts the least recently used connection, where
// "use" includes reuse — a connection touched by a coalesced request
// outlives an older untouched one.
func TestTotalCapEvictsLeastRecentlyUsed(t *testing.T) {
	ipA, ipB, ipC := ip("192.0.2.1"), ip("192.0.2.2"), ip("192.0.2.3")
	env := &fakeEnv{
		answers: map[string][]netip.Addr{
			"a.example.com": {ipA},
			"b.example.com": {ipB},
			"c.example.com": {ipC},
		},
		sans: map[string][]string{
			"a.example.com": {"a.example.com"},
			"b.example.com": {"b.example.com"},
			"c.example.com": {"c.example.com"},
		},
	}
	b := &Browser{Policy: PolicyChromium, MaxConns: 2}
	b.Request(env, "a.example.com")
	b.Request(env, "b.example.com")
	// Touch a: it becomes the most recently used.
	if out := b.Request(env, "a.example.com"); !out.Reused() {
		t.Fatalf("same-host revisit not reused: %+v", out)
	}
	// c needs a slot: b (LRU) must go, a must survive.
	b.Request(env, "c.example.com")
	if b.TotalEvicted != 1 || len(b.Conns()) != 2 {
		t.Fatalf("evicted=%d pool=%d, want 1/2", b.TotalEvicted, len(b.Conns()))
	}
	hosts := map[string]bool{}
	for _, c := range b.Conns() {
		hosts[c.Host] = true
	}
	if !hosts["a.example.com"] || !hosts["c.example.com"] || hosts["b.example.com"] {
		t.Fatalf("pool after LRU eviction: %v, want {a, c}", hosts)
	}
}

// Preconnect opens a real socket with real DNS, but it is not a
// request: TotalNewConn stays put, and the socket counts as wasted
// until a request rides it.
func TestPreconnectAccounting(t *testing.T) {
	ipA, ipB := ip("192.0.2.1"), ip("192.0.2.2")
	env := &fakeEnv{
		answers: map[string][]netip.Addr{
			"www.example.com":  {ipA},
			"idle.example.com": {ipB},
		},
		sans: map[string][]string{
			"www.example.com":  {"www.example.com"},
			"idle.example.com": {"idle.example.com"},
		},
	}
	b := New(PolicyChromium)
	if !b.Preconnect(env, "www.example.com") || !b.Preconnect(env, "idle.example.com") {
		t.Fatal("preconnects did not open")
	}
	if b.Preconnect(env, "www.example.com") {
		t.Fatal("preconnect re-opened an already-pooled host")
	}
	if b.TotalPreconns != 2 || b.TotalNewConn != 0 || b.TotalDNS != 2 || len(b.Conns()) != 2 {
		t.Fatalf("after preconnects: preconns=%d newconn=%d dns=%d pool=%d, want 2/0/2/2",
			b.TotalPreconns, b.TotalNewConn, b.TotalDNS, len(b.Conns()))
	}
	// The request rides the speculative socket: a reuse, and the socket
	// converts from wasted to used.
	out := b.Request(env, "www.example.com")
	if !out.Reused() {
		t.Fatalf("request did not ride the preconnected socket: %+v", out)
	}
	if b.TotalPreconnsUsed != 1 {
		t.Fatalf("TotalPreconnsUsed = %d, want 1", b.TotalPreconnsUsed)
	}
	if wasted := b.TotalPreconns - b.TotalPreconnsUsed; wasted != 1 {
		t.Fatalf("wasted sockets = %d, want 1 (idle.example.com)", wasted)
	}
	// Riding it twice counts it used once.
	b.Request(env, "www.example.com")
	if b.TotalPreconnsUsed != 1 {
		t.Fatalf("TotalPreconnsUsed double-counted: %d", b.TotalPreconnsUsed)
	}
}

// Reset clears the pool-management counters along with everything
// else.
func TestResetClearsPoolCounters(t *testing.T) {
	ipA := ip("192.0.2.1")
	b := &Browser{Policy: PolicyChromium, MaxConns: 1, MaxConnsPerHost: 1}
	env := poolEnv(ipA)
	b.Preconnect(env, "www.example.com")
	env.answers["www.example.com"] = []netip.Addr{ip("203.0.113.9"), ipA}
	env.reachable = map[string]bool{"www.example.com@" + ipA.String(): false}
	b.Request(env, "www.example.com")
	if b.TotalPreconns == 0 || b.TotalEvicted == 0 {
		t.Fatalf("scenario did not exercise the counters: preconns=%d evicted=%d",
			b.TotalPreconns, b.TotalEvicted)
	}
	b.Reset()
	if b.TotalEvicted != 0 || b.TotalPreconns != 0 || b.TotalPreconnsUsed != 0 || len(b.Conns()) != 0 {
		t.Fatalf("Reset left pool counters: evicted=%d preconns=%d used=%d pool=%d",
			b.TotalEvicted, b.TotalPreconns, b.TotalPreconnsUsed, len(b.Conns()))
	}
}

// sessionEnv builds one browsing session's environment: six hosts on
// names, addresses, SANs and origin sets that carry the session number,
// so anything a recycled connection kept from an earlier session would
// show. Hosts pair up on a shared address and certificate; the even
// host of each pair advertises the odd one in its origin set.
func sessionEnv(session int) (*fakeEnv, []string) {
	env := &fakeEnv{
		answers: map[string][]netip.Addr{},
		sans:    map[string][]string{},
		origins: map[string][]string{},
	}
	var hosts []string
	for i := 0; i < 6; i++ {
		host := fmt.Sprintf("h%d.s%d.example", i, session)
		pair := fmt.Sprintf("h%d.s%d.example", i^1, session)
		shared := netip.AddrFrom4([4]byte{10, byte(session), byte(i / 2), 1})
		own := netip.AddrFrom4([4]byte{10, byte(session), byte(i / 2), byte(2 + i%2)})
		env.answers[host] = []netip.Addr{own, shared}
		env.sans[host] = []string{host, pair}
		if i%2 == 0 {
			env.origins[host] = []string{pair}
		}
		hosts = append(hosts, host)
	}
	return env, hosts
}

// connView is what a test may read of a pooled connection.
type connView struct {
	Host, Available, SANs, Origins string
	IP                             netip.Addr
	Proto                          Protocol
	Speculative, Used              bool
}

func viewConns(b *Browser) []connView {
	var out []connView
	for _, c := range b.Conns() {
		origins := make([]string, 0, len(c.Origins))
		for o := range c.Origins {
			origins = append(origins, o)
		}
		sort.Strings(origins)
		out = append(out, connView{
			Host: c.Host, IP: c.IP, Proto: c.Proto, Speculative: c.speculative, Used: c.used,
			Available: fmt.Sprint(c.Available), SANs: fmt.Sprint(c.SANs), Origins: fmt.Sprint(origins),
		})
	}
	return out
}

// totalsOf snapshots the browser's exported state with the pool and
// configuration left out: two browsers that did the same work agree.
func totalsOf(b *Browser) Browser {
	t := *b
	t.conns, t.spare, t.Cache, t.Rec = nil, nil, nil, nil
	return t
}

// A browser Reset between sessions must behave exactly like a fresh one
// per session — Reset keeps storage, never state. A seeded schedule of
// requests, pre-connects, drops and 421-inducing migrations, under pool
// caps that force LRU and stale-connection evictions, runs on both for
// every policy and protocol; after each step the outcomes, totals and
// pool contents must agree, no connection may show a name or address of
// an earlier session, and no connection's Available may alias the slice
// the environment answered with.
func TestResetReusesStorageWithoutLeakingState(t *testing.T) {
	for _, policy := range []Policy{PolicyChromium, PolicyFirefox, PolicyFirefoxOrigin} {
		for _, proto := range Protocols {
			for _, caps := range [][2]int{{0, 0}, {3, 1}} {
				name := fmt.Sprintf("%v/%v/caps%v", policy, proto, caps)
				newBrowser := func() *Browser {
					return &Browser{Policy: policy, Proto: proto, MaxConns: caps[0], MaxConnsPerHost: caps[1]}
				}
				rng := rand.New(rand.NewSource(int64(policy)*100 + int64(proto)*10 + int64(caps[0])))
				reused := newBrowser()
				for session := 0; session < 12; session++ {
					fresh := newBrowser()
					reused.Reset()
					envs := [2]*fakeEnv{}
					var hosts []string
					envs[0], hosts = sessionEnv(session)
					envs[1], _ = sessionEnv(session)
					tag := fmt.Sprintf(".s%d.example", session)
					for step := 0; step < 40; step++ {
						host := hosts[rng.Intn(len(hosts))]
						op := rng.Intn(10)
						var got, want any
						switch {
						case op < 6:
							got, want = reused.Request(envs[0], host), fresh.Request(envs[1], host)
						case op < 8:
							got, want = reused.Preconnect(envs[0], host), fresh.Preconnect(envs[1], host)
						case op < 9:
							got, want = reused.DropConns(host), fresh.DropConns(host)
						default:
							// The host moves: its pooled connections go stale
							// and the next reuse bounces with a 421.
							for _, env := range envs {
								old := env.answers[host][0]
								env.answers[host] = []netip.Addr{netip.AddrFrom4([4]byte{10, byte(session), 200, byte(step)})}
								if env.reachable == nil {
									env.reachable = map[string]bool{}
								}
								env.reachable[host+"@"+old.String()] = false
							}
						}
						if got != want {
							t.Fatalf("%s session %d step %d (%s): reused browser returned %+v, fresh %+v", name, session, step, host, got, want)
						}
						if g, w := totalsOf(reused), totalsOf(fresh); !reflect.DeepEqual(g, w) {
							t.Fatalf("%s session %d step %d: totals differ\nreused %+v\nfresh  %+v", name, session, step, g, w)
						}
						g, w := viewConns(reused), viewConns(fresh)
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("%s session %d step %d: pools differ\nreused %+v\nfresh  %+v", name, session, step, g, w)
						}
						for i, c := range reused.Conns() {
							for _, s := range []string{g[i].Host, g[i].SANs, g[i].Origins} {
								if strings.Count(s, ".example") != strings.Count(s, tag) {
									t.Fatalf("%s session %d: connection shows a name of another session: %+v", name, session, g[i])
								}
							}
							for _, a := range c.Available {
								if a.As4()[1] != byte(session) {
									t.Fatalf("%s session %d: connection kept address %v of another session", name, session, a)
								}
							}
							if answer := envs[0].answers[c.Host]; len(answer) > 0 && &c.Available[0] == &answer[0] {
								t.Fatalf("%s session %d: Available of %s aliases the environment's answer", name, session, c.Host)
							}
						}
					}
				}
				if reused.TotalNewConn == 0 && reused.TotalPreconns == 0 {
					t.Fatalf("%s: the schedule opened no connection", name)
				}
			}
		}
	}
}
