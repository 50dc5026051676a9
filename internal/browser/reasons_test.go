package browser

import (
	"fmt"
	"net/netip"
	"testing"
)

// Every Reason comes out of at least one case: a reason no request can
// reach any more fails the test. Each case warms a browser with a few
// requests, optionally changes the environment, and pins the reason of
// one more request, credentialed unless the case says anonymous.
func TestOutcomeReasons(t *testing.T) {
	cases := []struct {
		name      string
		b         *Browser
		env       *fakeEnv
		warm      []string
		then      func(*fakeEnv) // applied after the warm-up, nil for none
		host      string
		anonymous bool
		want      Reason
		check     func(Outcome) bool // a further property, nil for none
	}{
		{name: "empty answer", b: New(PolicyFirefox), env: &fakeEnv{},
			host: "missing.example", want: reasonFailed,
			check: func(o Outcome) bool { return o.Err == errNoAddresses }},
		{name: "transitive address overlap", b: New(PolicyFirefox), env: twoHostEnv(),
			warm: []string{"www.example.com"}, host: "static.example.com", want: reasonIP,
			check: Outcome.Coalesced},
		{name: "origin set, cross-host", b: New(PolicyFirefoxOrigin), env: originEnv(),
			warm: []string{"www.example.com"}, host: "third.cdnshared.com", want: reasonOrigin,
			check: Outcome.Coalesced},
		// A connection's own host is always in its origin set, so
		// same-host reuse under ORIGIN is found on the ORIGIN path too.
		{name: "origin set, same host", b: New(PolicyFirefoxOrigin), env: originEnv(),
			warm: []string{"www.example.com"}, host: "www.example.com", want: reasonOrigin,
			check: func(o Outcome) bool { return o.ViaOrigin() && !o.Coalesced() }},
		// www's connection covers api and matches its address but no
		// longer serves it: the 421 falls back onto api's own connection,
		// which the per-host cap of 1 forces the request to share.
		{name: "421 then per-host cap", b: &Browser{Policy: PolicyChromium, MaxConnsPerHost: 1}, env: capEnv(),
			warm: []string{"www.example", "api.example"},
			then: func(env *fakeEnv) {
				env.answers["api.example"] = []netip.Addr{ip("192.0.2.1")}
				env.reachable = map[string]bool{"api.example@192.0.2.1": false}
			},
			host: "api.example", want: reasonPoolCap,
			check: func(o Outcome) bool { return o.Got421 && o.ConnHost == "api.example" }},
		{name: "empty pool", b: New(PolicyChromium), env: twoHostEnv(),
			host: "www.example.com", want: reasonNewFirst},
		{name: "certificate does not cover", b: New(PolicyFirefox), env: capEnv(),
			warm: []string{"api.example"}, host: "www.example", want: reasonNewSANMissing},
		{name: "cross-host under h1", b: &Browser{Policy: PolicyFirefox, Proto: ProtoH1}, env: twoHostEnv(),
			warm: []string{"www.example.com"}, host: "static.example.com", want: reasonNewH1},
		{name: "no address overlap", b: New(PolicyChromium), env: twoHostEnv(),
			warm: []string{"www.example.com"}, host: "static.example.com", want: reasonNewIPMismatch},
		{name: "421 on the IP path", b: New(PolicyFirefox), env: twoHostEnv(),
			warm: []string{"www.example.com"},
			then: func(env *fakeEnv) { env.reachable = map[string]bool{"static.example.com@192.0.2.1": false} },
			host: "static.example.com", want: reasonNew421,
			check: func(o Outcome) bool { return o.Got421 }},
		{name: "421 on the ORIGIN path", b: New(PolicyFirefoxOrigin), env: staleOriginEnv(false),
			warm: []string{"www.example"}, host: "api.example", want: reasonNew421,
			check: func(o Outcome) bool { return o.Got421 && o.DNSQueries == 1 }},
		// The credentialed request would ride www's connection through
		// its origin set.
		{name: "anonymous partition", b: New(PolicyFirefoxOrigin), env: originEnv(),
			warm: []string{"www.example.com"}, host: "third.cdnshared.com", anonymous: true, want: reasonNewAnonymous,
			check: func(o Outcome) bool { return o.NewConnection() && o.DNSQueries == 1 && o.ConnHost == o.Host }},
	}
	seen := map[Reason]bool{}
	for _, c := range cases {
		for _, h := range c.warm {
			c.b.Request(c.env, h)
		}
		if c.then != nil {
			c.then(c.env)
		}
		request := c.b.Request
		if c.anonymous {
			request = c.b.RequestAnonymous
		}
		out := request(c.env, c.host)
		seen[out.Reason] = true
		if out.Reason != c.want {
			t.Errorf("%s: reason %v, want %v (%+v)", c.name, out.Reason, c.want, out)
		} else if c.check != nil && !c.check(out) {
			t.Errorf("%s: reason %v, but the outcome fails its check: %+v", c.name, out.Reason, out)
		}
	}
	for r := Reason(0); int(r) < len(reasonNames); r++ {
		if !seen[r] {
			t.Errorf("no case reaches reason %v", r)
		}
	}
	if s := Reason(len(reasonNames)).String(); s != "unknown" {
		t.Errorf("out-of-range reason prints %q", s)
	}
}

// capEnv: www's certificate covers api and their addresses differ;
// api's certificate covers only itself.
func capEnv() *fakeEnv {
	return &fakeEnv{
		answers: map[string][]netip.Addr{
			"www.example": {ip("192.0.2.1")},
			"api.example": {ip("192.0.2.2")},
		},
		sans: map[string][]string{
			"www.example": {"www.example", "api.example"},
			"api.example": {"api.example"},
		},
	}
}

// FuzzRequestReasons drives a browser over a small fuzzed environment —
// up to 8 hosts, each with an answer over 4 addresses, a SAN list, an
// origin set and addresses that refuse it — under a fuzzed policy,
// protocol and pool caps, and holds every outcome to the bookkeeping
// the Reason enum promises. Layout: hosts, policy, protocol, caps, then
// three bytes per host (answer and refusing-address masks, SAN mask,
// origin mask), then one byte per request naming its host, anonymous
// when its top bit is set.
func FuzzRequestReasons(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			d := data[0]
			data = data[1:]
			return d
		}
		hosts := make([]string, 1+next()%8)
		for i := range hosts {
			hosts[i] = fmt.Sprintf("h%d.example", i)
		}
		b := &Browser{Policy: Policy(next() % 3), Proto: Protocol(next() % 3)}
		caps := next()
		b.MaxConns, b.MaxConnsPerHost, b.SkipOriginDNS = int(caps%4), int((caps>>2)%3), caps&16 != 0
		env := &fakeEnv{answers: map[string][]netip.Addr{}, sans: map[string][]string{},
			origins: map[string][]string{}, reachable: map[string]bool{}}
		for i, h := range hosts {
			addrs, sans, origins := next(), next(), next()
			for k := 0; k < 4; k++ {
				a := (i + k) % 4 // hosts start their answers at different addresses
				addr := netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + a)})
				if addrs&(1<<a) != 0 {
					env.answers[h] = append(env.answers[h], addr)
				}
				env.reachable[h+"@"+addr.String()] = addrs&(16<<a) == 0
			}
			for j, o := range hosts {
				if sans&(1<<j) != 0 {
					env.sans[h] = append(env.sans[h], o)
				}
				if origins&(1<<j) != 0 {
					env.origins[h] = append(env.origins[h], o)
				}
			}
		}
		var newConns, reused, got421 int
		for len(data) > 0 {
			r := next()
			host, anonymous := hosts[int(r&0x7f)%len(hosts)], r&0x80 != 0
			pooled := len(b.Conns())
			var out Outcome
			if anonymous {
				out = b.RequestAnonymous(env, host)
				if out.Reused() || len(b.Conns()) != pooled {
					t.Fatalf("%s: anonymous request %v reused or changed the pool (%d → %d conns)",
						host, out.Reason, pooled, len(b.Conns()))
				}
				if (out.Reason == reasonNewAnonymous) != (out.Err == nil) {
					t.Fatalf("%s: anonymous request decided %v with Err %v", host, out.Reason, out.Err)
				}
			} else {
				out = b.Request(env, host)
				if out.Reason == reasonNewAnonymous {
					t.Fatalf("%s: credentialed request decided %v", host, out.Reason)
				}
			}
			if (out.Reason == reasonFailed) != (out.Err != nil) {
				t.Fatalf("%s: reason %v with Err %v", host, out.Reason, out.Err)
			}
			n := 0
			for _, held := range []bool{out.Reused(), out.NewConnection(), out.Reason == reasonFailed} {
				if held {
					n++
				}
			}
			if n != 1 || out.Reason.String() == "unknown" {
				t.Fatalf("%s: reason %v is not exactly one of reused, new and failed", host, out.Reason)
			}
			if out.ViaOrigin() && (b.Policy != PolicyFirefoxOrigin || b.Proto == ProtoH1) {
				t.Fatalf("%s: ORIGIN reuse under %v/%v", host, b.Policy, b.Proto)
			}
			if out.Reason == reasonNewFirst && pooled > 0 {
				t.Fatalf("%s: %v with a non-empty pool", host, out.Reason)
			}
			if out.Reason == reasonNew421 && !out.Got421 || out.Reason == reasonNewH1 && b.Proto != ProtoH1 {
				t.Fatalf("%s: %v under %v, Got421=%v", host, out.Reason, b.Proto, out.Got421)
			}
			switch {
			case out.NewConnection():
				newConns++
			case out.Reused():
				reused++
			}
			if out.Got421 {
				got421++
			}
		}
		if b.TotalNewConn != newConns || b.TotalReused != reused || b.Total421 != got421 {
			t.Fatalf("totals new/reused/421 = %d/%d/%d, outcomes tally %d/%d/%d",
				b.TotalNewConn, b.TotalReused, b.Total421, newConns, reused, got421)
		}
	})
}
