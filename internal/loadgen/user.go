package loadgen

import (
	"math/rand"

	"respectorigin/internal/browser"
	"respectorigin/internal/cache"
	"respectorigin/internal/cdn"
	"respectorigin/internal/lazyrand"
	"respectorigin/internal/netsim"
)

// visit is one page view by one user, as produced by the parallel
// simulation phase: everything the sequential queueing pass needs to
// replay it on the virtual clock. The user and the visit's index within
// the user are where it is held (simulateUser's result at the user's
// index), not fields.
type visit struct {
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
	policy   browser.Policy
	h2       bool
	zoneHost string
	pop      int
}

// drawProfile fixes a user's client family, home zone, and anchored
// PoP from the user's own stream.
func drawProfile(cfg Config, sc *userScratch) userProfile {
	rs := sc.rs
	p := userProfile{
		zoneHost: sc.zoneHost(rs.Intn(cfg.Zones)),
		pop:      rs.Intn(cfg.PoPs),
	}
	switch cdn.UAFamily(rs.Float64()) {
	case cdn.UAFirefox:
		p.policy, p.h2 = browser.PolicyFirefoxOrigin, true
	case cdn.UAChrome:
		p.policy, p.h2 = browser.PolicyChromium, true
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
// never sees what the previous one left. It also lends what does not
// change from user to user: the zone names, each formatted the first
// time a user of the worker draws it, and the block the users' visits
// are cut from.
type userScratch struct {
	rs    *rand.Rand
	net   *netsim.Network
	b     *browser.Browser
	zones []string
	block []visit
}

func newUserScratch(cfg Config) *userScratch {
	return &userScratch{
		rs:    lazyrand.New(0),
		net:   netsim.New(netsim.DefaultParams(), 0),
		b:     &browser.Browser{Policy: browser.PolicyChromium, Proto: cfg.Proto, Cache: cache.New(cache.Options{})},
		zones: make([]string, cfg.Zones),
	}
}

// zoneHost is zone i's hostname, formatted once per scratch.
func (sc *userScratch) zoneHost(i int) string {
	if sc.zones[i] == "" {
		sc.zones[i] = zoneHost(i)
	}
	return sc.zones[i]
}

// visitBlock is how many visits one block of a worker's visit storage
// holds (120 KiB).
const visitBlock = 1024

// visits returns n zeroed visits for one user, cut from the worker's
// block and capped, so that nothing appended to them reaches the next
// user's. Blocks are never reused: a full one stays with the users whose
// visits it holds, and the next user starts a new one.
func (sc *userScratch) visits(n int) []visit {
	if cap(sc.block)-len(sc.block) < n {
		sc.block = make([]visit, 0, max(visitBlock, n))
	}
	lo := len(sc.block)
	sc.block = sc.block[:lo+n]
	return sc.block[lo : lo+n : lo+n]
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
	prof := drawProfile(cfg, sc)

	var b *browser.Browser
	if prof.h2 {
		b = sc.b
		b.Reset()
		b.Cache.Reset()
		b.Policy = prof.policy
	}

	visits := sc.visits(drawVisits(cfg, rs))
	now := arrivalMs
	for seq := range visits {
		v := &visits[seq]
		v.PoP = prof.pop
		if seq > 0 {
			gapMs := rs.ExpFloat64() * cfg.RevisitMeanSec * 1000
			now += gapMs
			if b != nil {
				// Legacy users carry no cache and no pool: nothing ages.
				b.Cache.Clock().AdvanceMs(int64(gapMs))
				if gapMs >= cfg.IdleTimeoutSec*1000 {
					// The server's idle timeout closed every pooled
					// connection while the user was away: drop the
					// first pooled host's until none is left.
					for conns := b.Conns(); len(conns) > 0; conns = b.Conns() {
						v.Churned += b.DropConns(conns[0].Host)
					}
				}
			}
		}
		v.ArrivalMs = now
		runVisit(cfg, env, prof, b, rs, net, v)
	}
	return visits
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
				net.HandshakeTime(netsim.Setup{SANs: 2}) + requestTime(rs, net)
		}
		v.ServiceMs = serviceMs*float64(v.Requests) +
			handshakeSvcMs*float64(v.FreshConns)
		return
	}
	accountRequest(b.Request(env, prof.zoneHost), rs, net, v)
	for p := 0; p < pools; p++ {
		accountRequest(b.Request(env, env.ThirdParty), rs, net, v)
	}
	v.ServiceMs = serviceMs*float64(v.Requests) +
		handshakeSvcMs*float64(v.FreshConns)
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
	case out.Reused():
		v.Reused++
		if out.Coalesced() {
			v.Coalesced++
		}
	case out.NewConnection():
		hs := out.Handshake
		v.FreshConns++
		if hs.Resumed {
			v.Resumed++
		}
		if out.Proto == browser.ProtoH3 {
			// QUIC folds transport and crypto into one handshake; the
			// warm state (resumed/token) decides how many round trips it
			// takes.
			v.ClientMs += net.HandshakeTime(netsim.Setup{QUIC: true, Resumed: hs.Resumed, TokenHit: hs.TokenHit, SANs: 1})
			if hs.TokenHit {
				v.AddrTokens++
			}
			if hs.ZeroRTT() {
				v.ZeroRTT++
			}
		} else {
			v.ClientMs += net.ConnectTime()
			v.ClientMs += net.HandshakeTime(netsim.Setup{Resumed: hs.Resumed, SANs: 2})
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
