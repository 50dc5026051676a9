package browser

import (
	"errors"
	"net/netip"
	"testing"

	"respectorigin/internal/obs"
)

// originEnv builds an environment where a carrier connection for
// www.example advertises origin coverage of api.example, but the edge
// no longer serves it — the §5.3 stale-origin 421 path.
func staleOriginEnv(reachable bool) *fakeEnv {
	ipA := ip("192.0.2.1")
	env := &fakeEnv{
		answers: map[string][]netip.Addr{
			"www.example": {ipA},
			"api.example": {ipA},
		},
		sans: map[string][]string{
			"www.example": {"www.example", "api.example"},
			"api.example": {"www.example", "api.example"},
		},
		origins: map[string][]string{
			"www.example": {"www.example", "api.example"},
		},
	}
	if !reachable {
		env.reachable = map[string]bool{"api.example@" + ipA.String(): false}
	}
	return env
}

// TestOrigin421FallbackSingleLookup is the regression test for the
// double-DNS bug: the ORIGIN path issued a blocking query, got a 421 on
// reuse, and then connectFresh issued a second query for the same
// request, double-counting DNSQueries against the §4.2 ideal.
func TestOrigin421FallbackSingleLookup(t *testing.T) {
	b := New(PolicyFirefoxOrigin)
	env := staleOriginEnv(false)
	first := b.Request(env, "www.example")
	if !first.NewConnection() || first.DNSQueries != 1 {
		t.Fatalf("carrier request: %+v", first)
	}

	out := b.Request(env, "api.example")
	if !out.Got421 {
		t.Fatalf("stale origin set did not produce a 421: %+v", out)
	}
	if !out.NewConnection() {
		t.Fatalf("421 fallback did not open a fresh connection: %+v", out)
	}
	if out.DNSQueries != 1 {
		t.Errorf("421 fallback issued %d DNS queries for one request, want 1", out.DNSQueries)
	}
	if env.lookups != 2 {
		t.Errorf("environment saw %d lookups across both requests, want 2", env.lookups)
	}
	if b.TotalDNS != 2 {
		t.Errorf("TotalDNS = %d, want 2 (one per request)", b.TotalDNS)
	}
}

// TestOrigin421FallbackSkipOriginDNS covers the §6.8 client: with the
// blocking query suppressed, the 421 fallback must issue exactly one
// (first) query, not zero.
func TestOrigin421FallbackSkipOriginDNS(t *testing.T) {
	b := New(PolicyFirefoxOrigin)
	b.SkipOriginDNS = true
	env := staleOriginEnv(false)
	b.Request(env, "www.example")

	out := b.Request(env, "api.example")
	if out.Reason != reasonNew421 {
		t.Fatalf("fallback outcome: %+v", out)
	}
	if out.DNSQueries != 1 {
		t.Errorf("SkipOriginDNS fallback issued %d queries, want 1", out.DNSQueries)
	}
}

// TestOriginReuseStillSingleLookup pins the healthy path: shipped
// Firefox issues one blocking query per ORIGIN-coalesced request.
func TestOriginReuseStillSingleLookup(t *testing.T) {
	b := New(PolicyFirefoxOrigin)
	env := staleOriginEnv(true)
	b.Request(env, "www.example")
	out := b.Request(env, "api.example")
	if !out.ViaOrigin() {
		t.Fatalf("expected ORIGIN reuse: %+v", out)
	}
	if out.DNSQueries != 1 || b.TotalDNS != 2 {
		t.Errorf("queries: out=%d total=%d, want 1 and 2", out.DNSQueries, b.TotalDNS)
	}
}

// failingEnv fails lookups and/or connection attempts a set number of
// times before succeeding.
type failingEnv struct {
	fakeEnv
	dnsFailures  int
	connFailures int
	connAttempts []netip.Addr // records the address of each attempt
}

var errDNS = errors.New("test: dns down")
var errConn = errors.New("test: connect refused")

func (f *failingEnv) Lookup(host string) ([]netip.Addr, error) {
	f.lookups++
	if f.dnsFailures > 0 {
		f.dnsFailures--
		return nil, errDNS
	}
	return f.answers[host], nil
}

func (f *failingEnv) ConnectFail(host string, ip netip.Addr) error {
	f.connAttempts = append(f.connAttempts, ip)
	if f.connFailures > 0 {
		f.connFailures--
		return errConn
	}
	return nil
}

// backoffLog is a recorder that sums the modelled backoff of every
// retry event.
type backoffLog struct{ ms float64 }

func (l *backoffLog) Count(string, int64) {}
func (l *backoffLog) Event(ev obs.Event) {
	if ev.Kind == obs.KindRetry {
		l.ms += ev.MS
	}
}

func retryEnv() *failingEnv {
	return &failingEnv{fakeEnv: fakeEnv{
		answers: map[string][]netip.Addr{
			"www.example": {ip("192.0.2.1"), ip("192.0.2.2")},
		},
		sans: map[string][]string{"www.example": {"www.example"}},
	}}
}

func TestDNSRetryWithBackoff(t *testing.T) {
	b := New(PolicyFirefox)
	b.MaxRetries = 2
	b.RetryBackoffMs = 100
	var backoff backoffLog
	b.Rec = &backoff
	env := retryEnv()
	env.dnsFailures = 2
	out := b.Request(env, "www.example")
	if out.Err != nil || !out.NewConnection() {
		t.Fatalf("request failed despite budget: %+v", out)
	}
	if out.DNSQueries != 3 {
		t.Errorf("DNSQueries = %d, want 3 (two failures + success)", out.DNSQueries)
	}
	if out.Retries != 2 {
		t.Errorf("retries = %d, want 2", out.Retries)
	}
	// Exponential schedule: 100 + 200.
	if backoff.ms != 300 {
		t.Errorf("backoff = %v ms, want 300", backoff.ms)
	}
	if env.dnsFailures != 0 {
		t.Errorf("%d of the 2 failing lookups left unasked", env.dnsFailures)
	}
}

func TestDNSRetryBudgetExhausted(t *testing.T) {
	b := New(PolicyFirefox)
	b.MaxRetries = 1
	env := retryEnv()
	env.dnsFailures = 5
	out := b.Request(env, "www.example")
	if !errors.Is(out.Err, errDNS) {
		t.Fatalf("Err = %v, want errDNS", out.Err)
	}
	if out.Reason != reasonFailed {
		t.Fatalf("failed request recorded a connection: %+v", out)
	}
	if out.DNSQueries != 2 {
		t.Errorf("DNSQueries = %d, want 2", out.DNSQueries)
	}
}

func TestConnectRetryRotatesAddresses(t *testing.T) {
	b := New(PolicyFirefox)
	b.MaxRetries = 2
	b.RetryBackoffMs = 50
	env := retryEnv()
	env.connFailures = 1
	out := b.Request(env, "www.example")
	if out.Err != nil || !out.NewConnection() {
		t.Fatalf("request failed: %+v", out)
	}
	if len(env.connAttempts) != 2 {
		t.Fatalf("connection attempts = %d, want 2", len(env.connAttempts))
	}
	// Second attempt must rotate to the next answer.
	if env.connAttempts[0] != ip("192.0.2.1") || env.connAttempts[1] != ip("192.0.2.2") {
		t.Errorf("attempts did not rotate the answer set: %v", env.connAttempts)
	}
	if env.connFailures != 0 {
		t.Errorf("the failing connection attempt was not made")
	}
}

func TestConnectRetryBudgetExhausted(t *testing.T) {
	b := New(PolicyFirefox)
	b.MaxRetries = 1
	env := retryEnv()
	env.connFailures = 5
	out := b.Request(env, "www.example")
	if !errors.Is(out.Err, errConn) {
		t.Fatalf("Err = %v, want errConn", out.Err)
	}
	if n := len(env.connAttempts); n != 2 {
		t.Errorf("%d failed connection attempts, want 2", n)
	}
	if len(b.Conns()) != 0 {
		t.Errorf("failed request left %d pooled conns", len(b.Conns()))
	}
}

// staleOriginRetryEnv is staleOriginEnv with fault hooks: the carrier
// for www.example advertises api.example in its origin set, the edge
// refuses api.example on reuse (421), and the fallback connection can
// be made to fail DNS lookups or connection attempts.
func staleOriginRetryEnv() *failingEnv {
	ipA := ip("192.0.2.1")
	return &failingEnv{fakeEnv: fakeEnv{
		answers: map[string][]netip.Addr{
			"www.example": {ipA},
			"api.example": {ipA, ip("192.0.2.7")},
		},
		sans: map[string][]string{
			"www.example": {"www.example", "api.example"},
			"api.example": {"www.example", "api.example"},
		},
		origins:   map[string][]string{"www.example": {"www.example", "api.example"}},
		reachable: map[string]bool{"api.example@" + ipA.String(): false},
	}}
}

// TestOrigin421FallbackWithConnectRetry combines the two fault paths:
// a request bounces off a stale origin set with a 421, its fallback
// connection fails once and succeeds on retry. The per-request DNS
// tally must stay at one — neither the 421 fallback nor the connect
// retry may issue a second lookup — or the §4.2 per-page DNS counts
// double-count every degraded-but-recovered request.
func TestOrigin421FallbackWithConnectRetry(t *testing.T) {
	b := New(PolicyFirefoxOrigin)
	b.MaxRetries = 2
	b.RetryBackoffMs = 100
	var backoff backoffLog
	b.Rec = &backoff
	env := staleOriginRetryEnv()
	if first := b.Request(env, "www.example"); !first.NewConnection() || first.DNSQueries != 1 {
		t.Fatalf("carrier request: %+v", first)
	}

	env.connFailures = 1
	out := b.Request(env, "api.example")
	if out.Reason != reasonNew421 || out.Err != nil {
		t.Fatalf("combined 421+retry outcome: %+v", out)
	}
	if out.DNSQueries != 1 {
		t.Errorf("DNSQueries = %d, want 1 (421 fallback and connect retry must reuse the blocking query's answer)", out.DNSQueries)
	}
	if out.Retries != 1 {
		t.Errorf("retries = %d, want 1", out.Retries)
	}
	if env.lookups != 2 {
		t.Errorf("environment saw %d lookups, want 2 (one per request)", env.lookups)
	}
	if b.TotalDNS != 2 {
		t.Errorf("TotalDNS = %d, want 2", b.TotalDNS)
	}
	// The retry rotated off the refused address.
	if n := len(env.connAttempts); n != 3 {
		t.Fatalf("connection attempts = %d, want 3 (carrier + failed + retried)", n)
	}
	if env.connAttempts[1] != ip("192.0.2.1") || env.connAttempts[2] != ip("192.0.2.7") {
		t.Errorf("fallback attempts did not rotate the answer set: %v", env.connAttempts[1:])
	}
	if backoff.ms != 100 {
		t.Errorf("backoff = %v ms, want 100", backoff.ms)
	}
}

// TestOrigin421FallbackWithDNSRetry puts the fault before the 421: the
// blocking origin query fails once and succeeds on retry, then reuse
// bounces with a 421. The fallback must ride the retried answer — two
// lookup attempts total for the request, never a third.
func TestOrigin421FallbackWithDNSRetry(t *testing.T) {
	b := New(PolicyFirefoxOrigin)
	b.MaxRetries = 2
	b.RetryBackoffMs = 100
	env := staleOriginRetryEnv()
	b.Request(env, "www.example")

	env.dnsFailures = 1
	out := b.Request(env, "api.example")
	if out.Reason != reasonNew421 || out.Err != nil {
		t.Fatalf("combined DNS-retry+421 outcome: %+v", out)
	}
	if out.DNSQueries != 2 {
		t.Errorf("DNSQueries = %d, want 2 (failed attempt + retried success, no post-421 lookup)", out.DNSQueries)
	}
	if out.Retries != 1 {
		t.Errorf("Retries = %d, want 1", out.Retries)
	}
	if env.lookups != 3 {
		t.Errorf("environment saw %d lookups, want 3", env.lookups)
	}
	if b.TotalDNS != 3 || env.dnsFailures != 0 {
		t.Errorf("TotalDNS=%d with %d failing lookups left unasked, want 3 and 0", b.TotalDNS, env.dnsFailures)
	}
}

// TestEmptyAnswerIsAccountedFailure pins the audit fix: a successful
// DNS response with no addresses must surface as errNoAddresses, a
// failed outcome, instead of vanishing silently.
func TestEmptyAnswerIsAccountedFailure(t *testing.T) {
	b := New(PolicyFirefox)
	env := &fakeEnv{answers: map[string][]netip.Addr{}}
	out := b.Request(env, "missing.example")
	if !errors.Is(out.Err, errNoAddresses) {
		t.Fatalf("Err = %v, want ErrNoAddresses", out.Err)
	}
	if out.Reason != reasonFailed {
		t.Fatalf("empty answer produced a connection: %+v", out)
	}
}

func TestDropConns(t *testing.T) {
	b := New(PolicyFirefox)
	env := retryEnv()
	b.Request(env, "www.example")
	if n := b.DropConns("www.example"); n != 1 {
		t.Fatalf("DropConns = %d, want 1", n)
	}
	if len(b.Conns()) != 0 {
		t.Fatalf("pool not empty after drop")
	}
	out := b.Request(env, "www.example")
	if !out.NewConnection() {
		t.Fatalf("request after drop did not reconnect: %+v", out)
	}
	if n := b.DropConns("other.example"); n != 0 {
		t.Fatalf("DropConns for absent host = %d, want 0", n)
	}
}

// TestSanMatchWildcardEdges pins the wildcard edge cases a connection's
// certificate check sees: a wildcard never matches its bare suffix,
// never spans multiple labels, and the degenerate "*." SAN matches
// nothing.
func TestSanMatchWildcardEdges(t *testing.T) {
	cases := []struct {
		sans []string
		host string
		want bool
	}{
		{[]string{"*.example.com"}, "www.example.com", true},
		{[]string{"*.example.com"}, "example.com", false},     // host == suffix
		{[]string{"*.example.com"}, "a.b.example.com", false}, // multi-label
		{[]string{"*."}, "anything", false},                   // bare wildcard
		{[]string{"*."}, "", false},
		{[]string{"*.example.com"}, ".example.com", false}, // empty label
		{[]string{"example.com"}, "example.com", true},     // exact
		{[]string{"*.example.com", "example.com"}, "example.com", true},
		{[]string{"*.co.uk"}, "example.co.uk", true}, // single label over ccTLD
		{[]string{"*.example.com"}, "wwwexample.com", false},
	}
	for _, c := range cases {
		conn := &Conn{SANs: c.sans}
		if got := conn.covers(c.host); got != c.want {
			t.Errorf("Conn{SANs: %v}.covers(%q) = %v, want %v", c.sans, c.host, got, c.want)
		}
	}
}
