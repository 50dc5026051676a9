package loadgen

import (
	"fmt"
	"math/rand"

	"respectorigin/internal/browser"
	"respectorigin/internal/cache"
	"respectorigin/internal/cdn"
	"respectorigin/internal/lazyrand"
	"respectorigin/internal/netsim"
)

// visit is one page view by one user, as produced by the parallel
// simulation phase: everything the sequential queueing pass needs to
// replay it on the virtual clock.
type visit struct {
	UserID    int
	Seq       int     // visit index within the user
	ArrivalMs float64 // absolute virtual time of the visit
	PoP       int     // anchored point of presence

	ClientMs  float64 // client-side network latency (DNS/connect/TLS/wait/transfer)
	ServiceMs float64 // server work the PoP queue must perform

	Requests   int
	FreshConns int // full TLS handshakes
	Resumed    int // ticket-resumption handshakes
	ZeroRTT    int // h3 0-RTT handshakes (ticket + address token)
	AddrTokens int // h3 address-validation token hits
	Reused     int // requests satisfied on a pooled connection
	Coalesced  int // reused across hostnames (Outcome.Coalesced)
	DNSQueries int
	DNSHits    int // positive DNS-cache hits
	Churned    int // pooled connections lost to the idle timeout
	Failed     int
}

// userProfile is the per-user identity drawn before any visit runs.
type userProfile struct {
	ua       string
	policy   browser.Policy
	h2       bool
	zoneHost string
	pop      int
}

// drawProfile fixes a user's client family, home zone, and anchored
// PoP from the user's own stream.
func drawProfile(cfg Config, rs *rand.Rand, uid int) userProfile {
	p := userProfile{
		zoneHost: fmt.Sprintf("www.zone-%d.example", rs.Intn(cfg.Zones)),
		pop:      rs.Intn(cfg.PoPs),
	}
	switch x := rs.Float64(); {
	case x < cfg.FirefoxShare:
		p.ua, p.policy, p.h2 = "firefox", browser.PolicyFirefoxOrigin, true
	case x < cfg.FirefoxShare+cfg.ChromeShare:
		p.ua, p.policy, p.h2 = "chrome", browser.PolicyChromium, true
	default:
		p.ua = "legacy"
	}
	return p
}

// drawVisits draws the user's visit count: geometric with the
// configured mean, minimum one.
func drawVisits(cfg Config, rs *rand.Rand) int {
	n := 1
	p := 1 - 1/cfg.VisitsMean // geometric continuation probability
	for rs.Float64() < p {
		n++
	}
	return n
}

// userScratch is the state one worker lends to each user in turn: the
// user's own stream and its netsim stream, both reseeded from the user's
// splitmix seeds before anything is drawn, and a browser with its
// warm-path cache, both reset before the user's first visit, so a user
// never sees what the previous one left.
type userScratch struct {
	rs  *rand.Rand
	net *netsim.Network
	b   *browser.Browser
}

func newUserScratch(cfg Config) *userScratch {
	return &userScratch{
		rs:  lazyrand.New(0),
		net: netsim.New(cfg.Net, 0),
		b:   browser.New(browser.PolicyChromium, browser.WithCache(cache.New(cfg.Cache)), browser.WithProtocol(cfg.Proto)),
	}
}

// simulateUser runs one user's whole browsing history: a pure function
// of (cfg, uid, arrivalMs) plus the shared read-only environment. The
// user owns every piece of mutable state it touches — the worker's
// scratch, for as long as it runs — so users simulate in parallel
// without ordering effects.
func simulateUser(cfg Config, env *cdn.CDN, sc *userScratch, uid int, arrivalMs float64) []visit {
	rs, net := sc.rs, sc.net
	rs.Seed(mix(cfg.Seed, uint64(uid)*2+1))
	net.Reseed(mix(cfg.Seed, uint64(uid)*2+2))
	prof := drawProfile(cfg, rs, uid)

	var b *browser.Browser
	if prof.h2 {
		b = sc.b
		b.Reset()
		b.Cache.Reset()
		b.Policy = prof.policy
	}

	nVisits := drawVisits(cfg, rs)
	visits := make([]visit, 0, nVisits)
	now := arrivalMs
	for seq := 0; seq < nVisits; seq++ {
		v := visit{UserID: uid, Seq: seq, PoP: prof.pop}
		if seq > 0 {
			gapMs := rs.ExpFloat64() * cfg.RevisitMeanSec * 1000
			now += gapMs
			if b != nil {
				// Legacy users carry no cache and no pool: nothing ages.
				b.Cache.Clock().AdvanceMs(int64(gapMs))
				if gapMs >= cfg.IdleTimeoutSec*1000 {
					// The server's idle timeout closed every pooled
					// connection while the user was away.
					for _, host := range pooledHosts(b) {
						v.Churned += b.DropConns(host)
					}
				}
			}
		}
		v.ArrivalMs = now
		runVisit(cfg, env, prof, b, rs, net, &v)
		visits = append(visits, v)
	}
	return visits
}

// pooledHosts snapshots the distinct hosts of the browser's pool
// (DropConns mutates the pool, so the walk is taken first).
func pooledHosts(b *browser.Browser) []string {
	seen := map[string]bool{}
	var hosts []string
	for _, c := range b.Conns() {
		if !seen[c.Host] {
			seen[c.Host] = true
			hosts = append(hosts, c.Host)
		}
	}
	return hosts
}

// runVisit performs one page view: the home-zone request followed by
// the page's third-party pools, accounting latency and connection
// outcomes into v.
func runVisit(cfg Config, env *cdn.CDN, prof userProfile, b *browser.Browser,
	rs *rand.Rand, net *netsim.Network, v *visit) {
	pools := cdn.SamplePools(rs)
	if !prof.h2 {
		// Legacy clients: one fresh connection per request, no
		// coalescing, no warm path.
		for r := 0; r < 1+pools; r++ {
			v.Requests++
			v.FreshConns++
			v.DNSQueries++
			v.ClientMs += net.DNSTime() + net.ConnectTime() +
				net.TLSTime(2, 1) + requestTime(rs, net)
		}
		v.ServiceMs = cfg.ServiceMs*float64(v.Requests) +
			cfg.HandshakeSvcMs*float64(v.FreshConns)
		return
	}
	accountRequest(b.Request(env, prof.zoneHost), rs, net, v)
	for p := 0; p < pools; p++ {
		accountRequest(b.Request(env, env.ThirdParty), rs, net, v)
	}
	v.ServiceMs = cfg.ServiceMs*float64(v.Requests) +
		cfg.HandshakeSvcMs*float64(v.FreshConns)
}

// accountRequest folds one browser outcome into the visit, charging
// the network phases the outcome implies.
func accountRequest(out browser.Outcome, rs *rand.Rand, net *netsim.Network, v *visit) {
	v.Requests++
	v.DNSQueries += out.DNSQueries
	v.DNSHits += out.DNSCacheHits
	for q := 0; q < out.DNSQueries; q++ {
		v.ClientMs += net.DNSTime()
	}
	if out.Err != nil {
		v.Failed++
		return
	}
	switch {
	case out.Reused:
		v.Reused++
		if out.Coalesced() {
			v.Coalesced++
		}
	case out.NewConnection:
		v.FreshConns++
		if out.ResumedTLS {
			v.Resumed++
		}
		if out.Proto == browser.ProtoH3 {
			// QUIC folds transport and crypto into one handshake; the
			// warm state (resumed/token) decides how many round trips it
			// takes.
			v.ClientMs += net.HandshakeTime(netsim.Setup{QUIC: true, Resumed: out.ResumedTLS, TokenHit: out.AddrTokenHit, SANs: 1})
			if out.AddrTokenHit {
				v.AddrTokens++
			}
			if out.ZeroRTT {
				v.ZeroRTT++
			}
		} else {
			v.ClientMs += net.ConnectTime()
			v.ClientMs += net.HandshakeTime(netsim.Setup{Resumed: out.ResumedTLS, SANs: 2})
		}
	}
	v.ClientMs += requestTime(rs, net)
}

// requestTime is the per-request cost every satisfied request pays:
// time-to-first-byte plus body transfer for a drawn resource size.
func requestTime(rs *rand.Rand, net *netsim.Network) float64 {
	bytes := int64(2048 + rs.Intn(131072))
	return net.WaitTime() + net.TransferTime(bytes)
}
