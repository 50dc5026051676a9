package browser

import (
	"fmt"
	"net/netip"
	"sort"
	"testing"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

// fakeEnv is a scriptable Environment.
type fakeEnv struct {
	answers   map[string][]netip.Addr
	sans      map[string][]string // keyed by SNI host
	origins   map[string][]string // keyed by SNI host
	reachable map[string]bool     // "host@ip" -> reachable; default true
	lookups   int
}

func (f *fakeEnv) Lookup(host string) ([]netip.Addr, error) {
	f.lookups++
	return f.answers[host], nil
}
func (f *fakeEnv) CertSANs(host string, ip netip.Addr) []string { return f.sans[host] }
func (f *fakeEnv) OriginSet(host string, ip netip.Addr) []string {
	return f.origins[host]
}
func (f *fakeEnv) Reachable(host string, addr netip.Addr) bool {
	if f.reachable == nil {
		return true
	}
	v, ok := f.reachable[host+"@"+addr.String()]
	if !ok {
		return true
	}
	return v
}

// twoHostEnv: www and static share a server; DNS returns overlapping
// but not identical sets, the §2.3 transitivity example.
func twoHostEnv() *fakeEnv {
	ipA, ipB, ipC := ip("192.0.2.1"), ip("192.0.2.2"), ip("192.0.2.3")
	return &fakeEnv{
		answers: map[string][]netip.Addr{
			"www.example.com":    {ipA, ipB},
			"static.example.com": {ipB, ipC},
		},
		sans: map[string][]string{
			"www.example.com":    {"www.example.com", "static.example.com"},
			"static.example.com": {"www.example.com", "static.example.com"},
		},
	}
}

func TestChromiumLosesTransitivity(t *testing.T) {
	// Paper §2.3: Chromium keeps only IP_A; the subresource answer
	// {IP_B, IP_C} has no overlap with {IP_A}, so a new connection is
	// opened despite the shared server.
	b := New(PolicyChromium)
	env := twoHostEnv()
	first := b.Request(env, "www.example.com")
	if !first.NewConnection() {
		t.Fatal("first request must connect")
	}
	second := b.Request(env, "static.example.com")
	if !second.NewConnection() {
		t.Errorf("chromium reused across transitive sets: %+v", second)
	}
	if b.TotalNewConn != 2 {
		t.Errorf("connections = %d", b.TotalNewConn)
	}
}

func TestFirefoxUsesTransitivity(t *testing.T) {
	// Firefox cached {IP_A, IP_B}; answer {IP_B, IP_C} overlaps at IP_B
	// and the certificate covers the host, so the connection is reused.
	b := New(PolicyFirefox)
	env := twoHostEnv()
	b.Request(env, "www.example.com")
	second := b.Request(env, "static.example.com")
	if !second.Reused() {
		t.Errorf("firefox did not coalesce: %+v", second)
	}
	if b.TotalNewConn != 1 {
		t.Errorf("connections = %d", b.TotalNewConn)
	}
	// DNS was still queried for both requests.
	if b.TotalDNS != 2 {
		t.Errorf("dns queries = %d", b.TotalDNS)
	}
}

func TestChromiumExactIPMatchCoalesces(t *testing.T) {
	ipA := ip("192.0.2.1")
	env := &fakeEnv{
		answers: map[string][]netip.Addr{
			"www.example.com": {ipA},
			"img.example.com": {ipA},
		},
		sans: map[string][]string{
			"www.example.com": {"www.example.com", "img.example.com"},
		},
	}
	b := New(PolicyChromium)
	b.Request(env, "www.example.com")
	second := b.Request(env, "img.example.com")
	if !second.Reused() {
		t.Errorf("chromium must reuse on exact IP match: %+v", second)
	}
}

func TestCertificateMustCoverHost(t *testing.T) {
	// Same IP, but the cert does not list the subresource host: no reuse
	// regardless of policy.
	ipA := ip("192.0.2.1")
	for _, pol := range []Policy{PolicyChromium, PolicyFirefox, PolicyFirefoxOrigin} {
		env := &fakeEnv{
			answers: map[string][]netip.Addr{
				"www.example.com":   {ipA},
				"other.example.com": {ipA},
			},
			sans: map[string][]string{
				"www.example.com":   {"www.example.com"},
				"other.example.com": {"other.example.com"},
			},
		}
		b := New(pol)
		b.Request(env, "www.example.com")
		second := b.Request(env, "other.example.com")
		if second.Reused() {
			t.Errorf("%v reused without SAN coverage", pol)
		}
	}
}

func TestWildcardSANCoverage(t *testing.T) {
	ipA := ip("192.0.2.1")
	env := &fakeEnv{
		answers: map[string][]netip.Addr{
			"www.example.com": {ipA},
			"img.example.com": {ipA},
			"a.b.example.com": {ipA},
			"wwwexample.com":  {ipA},
		},
		sans: map[string][]string{
			"www.example.com": {"*.example.com"},
		},
	}
	b := New(PolicyFirefox)
	b.Request(env, "www.example.com")
	if out := b.Request(env, "img.example.com"); !out.Reused() {
		t.Error("wildcard did not cover sibling label")
	}
	if out := b.Request(env, "a.b.example.com"); out.Reused() {
		t.Error("wildcard covered two labels")
	}
	if out := b.Request(env, "wwwexample.com"); out.Reused() {
		t.Error("wildcard covered apex-like host")
	}
}

func originEnv() *fakeEnv {
	// www and thirdparty share a CDN server but have DISJOINT address
	// sets (different traffic engineering, the §5.3 deployment shape).
	ipA, ipB := ip("203.0.113.1"), ip("203.0.113.99")
	return &fakeEnv{
		answers: map[string][]netip.Addr{
			"www.example.com":     {ipA},
			"third.cdnshared.com": {ipB},
		},
		sans: map[string][]string{
			"www.example.com":     {"www.example.com", "third.cdnshared.com"},
			"third.cdnshared.com": {"third.cdnshared.com"},
		},
		origins: map[string][]string{
			"www.example.com": {"third.cdnshared.com"},
		},
	}
}

func TestOriginFrameEnablesCoalescingAcrossIPs(t *testing.T) {
	env := originEnv()

	// Without ORIGIN support no policy can coalesce (disjoint IPs).
	for _, pol := range []Policy{PolicyChromium, PolicyFirefox} {
		b := New(pol)
		b.Request(env, "www.example.com")
		if out := b.Request(env, "third.cdnshared.com"); out.Reused() {
			t.Errorf("%v coalesced across disjoint IPs without ORIGIN", pol)
		}
	}

	b := New(PolicyFirefoxOrigin)
	b.Request(env, "www.example.com")
	out := b.Request(env, "third.cdnshared.com")
	if !out.ViaOrigin() {
		t.Errorf("origin coalescing failed: %+v", out)
	}
	if b.TotalNewConn != 1 {
		t.Errorf("connections = %d", b.TotalNewConn)
	}
}

func TestFirefoxStillQueriesDNSForOriginHits(t *testing.T) {
	// §6.8: shipped Firefox issues a blocking DNS query even when the
	// ORIGIN frame (plus cert) already authorizes the connection.
	env := originEnv()
	b := New(PolicyFirefoxOrigin)
	b.Request(env, "www.example.com")
	out := b.Request(env, "third.cdnshared.com")
	if !out.Reused() {
		t.Fatal("expected origin reuse")
	}
	if out.DNSQueries != 1 {
		t.Errorf("dns queries on origin hit = %d, want 1 (conservative Firefox)", out.DNSQueries)
	}

	// The recommended client skips that query.
	b2 := New(PolicyFirefoxOrigin)
	b2.SkipOriginDNS = true
	b2.Request(env, "www.example.com")
	out2 := b2.Request(env, "third.cdnshared.com")
	if !out2.Reused() || out2.DNSQueries != 0 {
		t.Errorf("ideal client outcome: %+v", out2)
	}
}

func TestOriginWithoutSANDoesNotCoalesce(t *testing.T) {
	// RFC 8336 §2.4: origin-set membership alone is insufficient; the
	// certificate must cover the name.
	env := originEnv()
	env.sans["www.example.com"] = []string{"www.example.com"} // drop third-party SAN
	b := New(PolicyFirefoxOrigin)
	b.Request(env, "www.example.com")
	out := b.Request(env, "third.cdnshared.com")
	if out.Reused() {
		t.Errorf("coalesced on origin set without SAN coverage: %+v", out)
	}
}

func Test421FallbackOpensNewConnection(t *testing.T) {
	env := twoHostEnv()
	env.reachable = map[string]bool{
		"static.example.com@192.0.2.1": false, // reuse target bounces
	}
	b := New(PolicyFirefox)
	b.Request(env, "www.example.com")
	out := b.Request(env, "static.example.com")
	if !out.Got421 {
		t.Errorf("no 421 recorded: %+v", out)
	}
	if !out.NewConnection() {
		t.Error("client did not fail open with a new connection")
	}
	if b.Total421 != 1 || b.TotalNewConn != 2 {
		t.Errorf("totals: %+v", b)
	}
}

func TestOrigin421FailOpen(t *testing.T) {
	// A misconfigured origin set (unreachable name) must fail open.
	env := originEnv()
	env.reachable = map[string]bool{
		"third.cdnshared.com@203.0.113.1": false,
	}
	b := New(PolicyFirefoxOrigin)
	b.Request(env, "www.example.com")
	out := b.Request(env, "third.cdnshared.com")
	if out.Reason != reasonNew421 {
		t.Errorf("reused an unreachable origin or did not fail open: %+v", out)
	}
}

func TestResetClearsPool(t *testing.T) {
	env := twoHostEnv()
	b := New(PolicyFirefox)
	b.Request(env, "www.example.com")
	b.Reset()
	if len(b.Conns()) != 0 || b.TotalNewConn != 0 {
		t.Error("reset incomplete")
	}
	out := b.Request(env, "static.example.com")
	if !out.NewConnection() {
		t.Error("fresh session reused phantom connection")
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyChromium.String() != "chromium" ||
		PolicyFirefox.String() != "firefox" ||
		PolicyFirefoxOrigin.String() != "firefox+origin" ||
		Policy(99).String() != "unknown" {
		t.Error("policy strings wrong")
	}
}

func TestEmptyDNSAnswer(t *testing.T) {
	env := &fakeEnv{answers: map[string][]netip.Addr{}}
	b := New(PolicyChromium)
	out := b.Request(env, "missing.example.com")
	if out.Reason != reasonFailed {
		t.Errorf("request succeeded without DNS: %+v", out)
	}
}

// Without a recorder a fresh connection allocates nothing once the
// browser has run one session: Reset keeps the closed Conn, its address
// list, its origin map and the pool slot for the next session, and no
// event detail is formatted for a recorder that is not there. All
// policies: the origin map is the storage only PolicyFirefoxOrigin has.
func TestFreshConnectionAllocsWithoutRecorder(t *testing.T) {
	env := staleOriginEnv(true)
	for _, policy := range []Policy{PolicyChromium, PolicyFirefox, PolicyFirefoxOrigin} {
		b := New(policy)
		got := testing.AllocsPerRun(200, func() {
			b.Reset()
			if out := b.Request(env, "www.example"); !out.NewConnection() {
				t.Fatal("request after Reset did not connect")
			}
		})
		if got != 0 {
			t.Errorf("%v: fresh connection with a nil recorder: %.0f allocs, want 0", policy, got)
		}
	}
}

// recycleEnv serves three hosts that never share a connection: each has
// its own addresses and a certificate for itself alone, and each
// advertises an origin set of a different size, so a recycled
// connection that kept an address or an origin of its last host shows.
func recycleEnv() *fakeEnv {
	env := &fakeEnv{answers: map[string][]netip.Addr{}, sans: map[string][]string{}, origins: map[string][]string{}}
	for i, host := range []string{"a.example", "b.example", "c.example"} {
		for k := 0; k < 3-i; k++ {
			env.answers[host] = append(env.answers[host], netip.AddrFrom4([4]byte{192, 0, byte(2 + i), byte(1 + k)}))
			env.origins[host] = append(env.origins[host], fmt.Sprintf("o%d.%s", k, host))
		}
		env.sans[host] = []string{host}
	}
	return env
}

// Within one session, a connection DropConns or an eviction closed is
// refilled for the next connection, as Reset's are: once warm, a drop
// and a reconnect, or a reconnect that evicts under MaxConns, allocate
// nothing, for every policy.
func TestDroppedAndEvictedConnsAllocNothing(t *testing.T) {
	env := recycleEnv()
	hosts := []string{"a.example", "b.example", "c.example"}
	connect := func(b *Browser, host string) {
		if out := b.Request(env, host); !out.NewConnection() {
			t.Fatalf("%v: %s did not connect: %+v", b.Policy, host, out)
		}
	}
	for _, policy := range []Policy{PolicyChromium, PolicyFirefox, PolicyFirefoxOrigin} {
		b := New(policy)
		for _, host := range hosts {
			connect(b, host)
		}
		i := 0
		drops := testing.AllocsPerRun(200, func() {
			host := hosts[i%len(hosts)]
			i++
			if n := b.DropConns(host); n != 1 {
				t.Fatalf("%v: DropConns(%s) = %d, want 1", policy, host, n)
			}
			connect(b, host)
		})

		capped := &Browser{Policy: policy, MaxConns: 1}
		for range 2 {
			for _, host := range hosts {
				connect(capped, host)
			}
		}
		evictions := testing.AllocsPerRun(200, func() {
			connect(capped, hosts[i%len(hosts)])
			i++
		})
		if drops != 0 || evictions != 0 {
			t.Errorf("%v: a drop and reconnect allocates %.0f objects, a reconnect that evicts %.0f; want 0 and 0", policy, drops, evictions)
		}
		if capped.TotalEvicted == 0 {
			t.Fatalf("%v: MaxConns 1 evicted nothing", policy)
		}
	}
}

// A connection refilled after a drop or an eviction in the same session
// shows only its own host, address, answer set and origin set: nothing
// of the host it last carried. (TestResetReusesStorageWithoutLeakingState
// checks the same across Reset.)
func TestRecycledConnShowsOnlyItsOwnHost(t *testing.T) {
	env := recycleEnv()
	for _, policy := range []Policy{PolicyChromium, PolicyFirefox, PolicyFirefoxOrigin} {
		check := func(how string, b *Browser, closed *Conn, host string) {
			t.Helper()
			b.Request(env, host)
			c := b.Conns()[len(b.Conns())-1]
			if c != closed {
				t.Fatalf("%v, %s: %s got a new Conn, want the closed one refilled", policy, how, host)
			}
			answer := env.answers[host]
			want := connView{Host: host, IP: answer[0], Used: true, SANs: fmt.Sprint([]string{host}),
				Available: fmt.Sprint(answer), Origins: "[]"}
			if policy == PolicyChromium {
				want.Available = fmt.Sprint(answer[:1])
			}
			if policy == PolicyFirefoxOrigin {
				origins := append([]string{host}, env.origins[host]...)
				sort.Strings(origins)
				want.Origins = fmt.Sprint(origins)
			}
			if got := viewConns(b)[len(b.Conns())-1]; got != want {
				t.Errorf("%v, %s: %s refilled as\n %+v\nwant %+v", policy, how, host, got, want)
			}
		}

		// a.example holds the most addresses and origins; b and c fewer.
		b := New(policy)
		b.Request(env, "a.example")
		closed := b.Conns()[0]
		b.DropConns("a.example")
		check("after DropConns", b, closed, "c.example")

		capped := &Browser{Policy: policy, MaxConns: 1}
		capped.Request(env, "a.example")
		closed = capped.Conns()[0]
		capped.Request(env, "b.example") // a new Conn; a's is evicted
		check("after eviction", capped, closed, "c.example")
	}
}
