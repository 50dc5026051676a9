// Package browser implements the client-side connection-coalescing
// policies the paper derives from browser source inspection (§2.3):
//
//   - PolicyChromium: IP-based coalescing against the connected address
//     only. A subresource's DNS answer must contain the exact address of
//     an existing connection; address-set transitivity is lost.
//   - PolicyFirefox: IP-based coalescing with transitivity. Firefox
//     caches the full address set from each DNS answer, so any overlap
//     between a cached set and a new answer permits reuse.
//   - PolicyFirefoxOrigin: Firefox plus RFC 8336 ORIGIN frame support —
//     a connection whose origin set contains the hostname (and whose
//     certificate covers it) is reused. Matching Firefox's shipped
//     behaviour (§6.8), a blocking DNS query is still issued unless
//     SkipOriginDNS is set (the paper's recommended client change).
//
// Every policy requires the connection's certificate to cover the
// hostname, and models the 421 Misdirected Request fallback when the
// reused server turns out not to serve the host (§2.2).
package browser

import (
	"errors"
	"net/netip"
	"slices"

	"respectorigin/internal/cache"
	"respectorigin/internal/certs"
	"respectorigin/internal/obs"
)

// errNoAddresses reports a DNS response that succeeded but carried no
// usable addresses. For connection purposes this is a failure: without
// it, such a request would produce an Outcome with no connection, no
// reuse, and a nil Err, silently vanishing from the per-page failure
// tally.
var errNoAddresses = errors.New("browser: DNS answer contained no addresses")

// errNegativeCache reports a lookup answered by the warm-path negative
// DNS cache: the name failed recently and the cached failure is served
// without querying the authority again.
var errNegativeCache = errors.New("browser: cached DNS failure (negative cache)")

// Policy selects a coalescing behaviour.
type Policy int

// Policies.
const (
	PolicyChromium Policy = iota
	PolicyFirefox
	PolicyFirefoxOrigin
)

func (p Policy) String() string {
	switch p {
	case PolicyChromium:
		return "chromium"
	case PolicyFirefox:
		return "firefox"
	case PolicyFirefoxOrigin:
		return "firefox+origin"
	default:
		return "unknown"
	}
}

// Environment is what the browser sees of the network: DNS, and the
// certificate / origin-set / reachability of servers. The CDN simulator
// and test fakes implement it.
type Environment interface {
	// Lookup resolves host, returning its address set in answer order.
	// Implementations count every call as one DNS query.
	Lookup(host string) ([]netip.Addr, error)

	// CertSANs returns the SAN list of the certificate a server at ip
	// presents for connections whose SNI is host.
	CertSANs(host string, ip netip.Addr) []string

	// OriginSet returns the origin set the server at ip advertises on a
	// connection opened for host (nil when the server sends no ORIGIN
	// frame).
	OriginSet(host string, ip netip.Addr) []string

	// Reachable reports whether the server at ip can authoritatively
	// serve host; false produces a 421 on attempted reuse.
	Reachable(host string, ip netip.Addr) bool
}

// ConnectFailer is an optional Environment extension for environments
// that model connection-setup faults (TLS handshake failures, resets
// during setup). A non-nil error fails the attempt; the browser then
// retries per its retry budget, rotating through the answer set.
// Environments without the extension connect unconditionally.
type ConnectFailer interface {
	ConnectFail(host string, ip netip.Addr) error
}

// TTLLookuper is an optional Environment extension exposing the
// answer's TTL budget alongside its address set, so a cache-carrying
// browser can honor per-name TTLs sourced from the authority. A
// browser only calls it when a cache is installed; environments
// without the extension fall back to Lookup and the cache's default
// TTL.
type TTLLookuper interface {
	LookupTTL(host string) (addrs []netip.Addr, ttlSeconds uint32, err error)
}

// Conn is a pooled connection.
type Conn struct {
	Host string     // hostname the connection was opened for
	IP   netip.Addr // connected address

	// Available is the full DNS answer set observed when connecting
	// (Firefox caches this; Chromium discards all but IP).
	Available []netip.Addr

	// SANs is the server certificate's SAN list.
	SANs []string

	// Origins is the origin set advertised on this connection; nil on
	// connections of a policy that never reads it.
	Origins map[string]bool

	// Proto is the protocol this connection speaks (may differ from the
	// browser's configured protocol after an Alt-Svc h3→h2 downgrade).
	Proto Protocol

	// lastUse orders the pool for LRU eviction: it is the browser's
	// use-sequence number at the connection's most recent open or reuse.
	lastUse int
	// speculative marks a connection opened by Preconnect rather than by
	// a request; used flips when a request first rides it. A speculative
	// connection that is never used is a wasted socket.
	speculative bool
	used        bool
}

// covers reports whether the connection's certificate covers host,
// honoring single-label wildcards.
func (c *Conn) covers(host string) bool {
	return certs.Covers(c.SANs, host)
}

// Reason names how one request was decided: the path that found a
// pooled connection to ride, or why no pooled connection could carry it
// (the causes of Sander et al.'s redundant-connection catalogue that
// this pool can produce). The zero value is reasonFailed.
type Reason uint8

// Reasons. The new-connection causes up to reasonNewIPMismatch are
// ordered by how far a pooled connection got through findByIP's checks:
// certificate coverage, then h1's same-host rule, then address overlap.
const (
	reasonFailed        Reason = iota // the request failed; Err says why
	reasonIP                          // reused: an address matched
	reasonOrigin                      // reused: an origin set lists the host (same-host included)
	reasonPoolCap                     // reused: MaxConnsPerHost forced same-host multiplexing
	reasonNewFirst                    // new: the pool was empty
	reasonNewSANMissing               // new: no pooled certificate covers the host
	reasonNewH1                       // new: a covering connection is cross-host under h1
	reasonNewIPMismatch               // new: covering and eligible, but no address overlaps
	reasonNew421                      // new: a reuse attempt bounced with 421
	reasonNewAnonymous                // new: an uncredentialed request never rides the pool
)

var reasonNames = [...]string{"failed", "ip", "origin", "pool-cap",
	"new:first", "new:san-missing", "new:h1", "new:ip-mismatch", "new:421-fallback",
	"new:anonymous-partition"}

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "unknown"
}

// Outcome reports how one request was satisfied.
type Outcome struct {
	Host       string
	Reason     Reason // how the request was decided; ReasonFailed iff Err != nil
	ConnHost   string // host the carrying connection was opened for
	DNSQueries int    // queries issued for this request
	Got421     bool   // reuse attempt bounced with 421
	Retries    int    // retry attempts consumed by this request
	Err        error

	// Warm-path accounting, only ever set when a cache is installed.
	// Handshake is what the warm state did for a new connection (zero on
	// reuse): a resumed handshake still opens a new connection, it just
	// skips the full handshake and certificate validation, whereas reuse
	// skips the connection entirely (coalescing).
	DNSCacheHits int  // lookups served from the positive DNS cache
	NegCacheHit  bool // lookup answered by the negative DNS cache
	Handshake    cache.Handshake

	// Proto is the protocol the satisfying connection speaks (for reuse,
	// the carrying connection's protocol).
	Proto Protocol
}

// Reused reports whether the request rode an existing connection.
func (o Outcome) Reused() bool { return o.Reason != reasonFailed && o.Reason < reasonNewFirst }

// NewConnection reports whether the request opened a fresh connection.
func (o Outcome) NewConnection() bool { return o.Reason >= reasonNewFirst }

// ViaOrigin reports whether an ORIGIN frame authorized the reuse.
func (o Outcome) ViaOrigin() bool { return o.Reason == reasonOrigin }

// Coalesced reports whether the request rode a connection opened for a
// different hostname (true cross-host coalescing, as opposed to plain
// same-host connection reuse).
func (o Outcome) Coalesced() bool { return o.Reused() && o.ConnHost != o.Host }

// Browser is a connection pool governed by a Policy. It is not safe for
// concurrent use; page loads are sequential per browsing context.
type Browser struct {
	Policy Policy

	// Proto is the application protocol the browser speaks on fresh
	// connections. The zero value (ProtoH2) preserves the historical
	// TCP+TLS behaviour byte for byte; ProtoH1 disables cross-host
	// coalescing (keep-alive only); ProtoH3 pays QUIC handshake costs
	// and may redeem address-validation tokens for 0-RTT.
	Proto Protocol

	// SkipOriginDNS suppresses the DNS query for hosts found in an
	// origin set (the §6.8 recommended client behaviour). Only
	// meaningful for PolicyFirefoxOrigin.
	SkipOriginDNS bool

	// MaxRetries bounds retry attempts after a failed DNS lookup or a
	// failed connection attempt. 0 (the default) fails immediately,
	// preserving the pre-fault behaviour.
	MaxRetries int
	// RetryBackoffMs is the base of the exponential backoff schedule:
	// retry k is preceded by a modelled delay of RetryBackoffMs·2^(k-1)
	// milliseconds, which the retry trace event carries (the pool does
	// not sleep in wall-clock time).
	RetryBackoffMs float64

	// MaxConns caps the pool's total size. When opening a fresh
	// connection would exceed it, the least recently used pooled
	// connection is evicted first. 0 (the default) leaves the pool
	// unbounded, preserving the historical behaviour.
	MaxConns int
	// MaxConnsPerHost caps how many pooled connections may exist for one
	// hostname. At the cap, a request that would open another connection
	// for the host instead multiplexes onto a reachable existing one
	// (same-host reuse); if every pooled connection for the host is
	// stale — the server moved, every reuse would 421 — the oldest are
	// evicted to make room for exactly one replacement, so a capped pool
	// never leaks dead sockets. 0 means uncapped.
	MaxConnsPerHost int

	// Rec, when non-nil, receives one span-style event per step of
	// every request (DNS query → TLS handshake → coalesce decision)
	// plus "browser.*" counters. Rank tags the events with the page
	// load they belong to; Seq within a rank is assigned here in
	// request order. Pure observation: no policy decision reads it.
	Rec  obs.Recorder
	Rank int

	// Cache, when non-nil, is the warm-path state consulted before the
	// environment: the DNS answer cache short-circuits lookups, the
	// ticket store resumes handshakes across hostnames the certificate
	// covers, and the chain memo skips repeat validations. nil (the
	// default) disables every warm path and leaves behaviour — and
	// every output byte — identical to a cache-free build. Reset does
	// NOT clear it: the cache models client state that survives across
	// browsing sessions.
	Cache *cache.Cache

	seq    int
	useSeq int // monotone use counter feeding Conn.lastUse
	conns  []*Conn
	// spare holds the connections closed by Reset, DropConns or eviction,
	// kept for their storage (the Conn, its Available capacity, its
	// emptied Origins map): openConn refills one before it allocates.
	spare []*Conn

	// Totals are the counters across every request since the last Reset.
	Totals
}

// Totals are a browser's counters. Reset zeroes them in one assignment,
// so a new total cannot be left out of it.
type Totals struct {
	TotalDNS     int
	TotalNewConn int
	Total421     int
	TotalReused  int

	// Warm-path total (zero when Cache is nil).
	TotalResumed int // connections established via ticket resumption

	// Pool-management totals (all zero unless a cap is set or
	// Preconnect is called).
	TotalEvicted      int // pooled connections closed by cap enforcement
	TotalPreconns     int // speculative connections opened by Preconnect
	TotalPreconnsUsed int // speculative connections a request later rode
}

// New returns a Browser with the given policy and every other field at
// its zero value. Callers set the fields they need before the first
// request.
func New(p Policy) *Browser { return &Browser{Policy: p} }

// Conns returns the current connection pool. The slice and the
// connections it points to belong to the browser: a connection is valid
// until the Reset, DropConns or eviction that closes it, which recycles
// it for a later connection.
func (b *Browser) Conns() []*Conn { return b.conns }

// Reset drops all pooled connections and counters and restarts the
// event sequence (a fresh browsing session, as in the paper's active
// measurements). The pool's storage is kept for the next session's
// connections, so a browser Reset per page stops allocating once it has
// seen its largest page.
func (b *Browser) Reset() {
	b.spare = append(b.spare, b.conns...)
	clear(b.conns)
	b.conns = b.conns[:0]
	b.seq = 0
	b.Totals = Totals{}
	b.useSeq = 0
}

// DropConns removes every pooled connection opened for host (the pool's
// reaction to a TCP reset or a server GOAWAY drain) and reports how
// many were dropped. Subsequent requests must reconnect. The dropped
// connections are kept for their storage, as Reset keeps them.
func (b *Browser) DropConns(host string) int {
	kept := b.conns[:0]
	for _, c := range b.conns {
		if c.Host == host {
			b.spare = append(b.spare, c)
		} else {
			kept = append(kept, c)
		}
	}
	n := len(b.conns) - len(kept)
	clear(b.conns[len(kept):])
	b.conns = kept
	return n
}

// emit appends one event to the recorder, stamping it with the
// browser's rank and the next sequence number. Callers check b.Rec
// first, so an uninstrumented request never builds the event.
func (b *Browser) emit(ev obs.Event) {
	ev.Rank = b.Rank
	ev.Seq = b.seq
	b.seq++
	b.Rec.Event(ev)
}

// emitConn emits a per-connection event whose detail is the address.
// The address is formatted only for a recorder: every fresh connection
// of an uninstrumented run would otherwise build a string to drop it.
func (b *Browser) emitConn(kind, host string, ip netip.Addr) {
	if b.Rec != nil {
		b.emit(obs.Event{Kind: kind, Host: host, Detail: ip.String()})
	}
}

// markUsed stamps a use on the connection for LRU ordering, and counts
// the first request to ride a speculative socket (converting it from a
// wasted pre-connect to a used one).
func (b *Browser) markUsed(c *Conn) {
	c.lastUse = b.useSeq
	b.useSeq++
	if c.speculative && !c.used {
		b.TotalPreconnsUsed++
	}
	c.used = true
}

// evict closes one pooled connection under cap pressure, keeping it for
// its storage.
func (b *Browser) evict(victim *Conn) {
	i := slices.Index(b.conns, victim)
	b.conns = slices.Delete(b.conns, i, i+1)
	b.spare = append(b.spare, victim)
	b.TotalEvicted++
}

// byLastUse orders connections least recently used first.
func byLastUse(x, y *Conn) int { return x.lastUse - y.lastUse }

// Request fetches host through the pool, coalescing when the policy
// permits.
func (b *Browser) Request(env Environment, host string) Outcome {
	out := Outcome{Host: host, Proto: b.Proto}
	b.request(env, host, &out)
	b.account(&out)
	return out
}

// request is Request's decision, filling in out.
func (b *Browser) request(env Environment, host string, out *Outcome) {
	// ORIGIN-frame path: check origin sets before DNS. HTTP/1.1 has no
	// frame layer to carry ORIGIN on, so the path only exists for the
	// multiplexed protocols.
	if b.Policy == PolicyFirefoxOrigin && b.Proto != ProtoH1 {
		if c := b.findByOrigin(host); c != nil {
			var addrs []netip.Addr
			var err error
			if !b.SkipOriginDNS {
				// Shipped Firefox still issues a blocking query.
				addrs, err = b.lookup(env, host, out)
			}
			if env.Reachable(host, c.IP) {
				b.reuse(c, reasonOrigin, out)
				return
			}
			// Misconfigured origin set: fail open (§5.3) with a 421. The
			// fallback reuses the blocking query's answer set; a second
			// lookup would double-count DNS for this one request.
			out.Got421 = true
			if b.Rec != nil {
				b.emit(obs.Event{Kind: obs.KindMisdirected, Host: host, Conn: c.Host, Detail: "origin"})
			}
			if b.SkipOriginDNS {
				addrs, err = b.lookup(env, host, out)
			}
			if err != nil {
				out.Err = err
				return
			}
			b.connectFresh(env, host, addrs, reasonNew421, out)
			return
		}
	}

	// IP-based paths always query DNS.
	addrs, err := b.lookup(env, host, out)
	if err != nil {
		out.Err = err
		return
	}
	c, why := b.findByIP(host, addrs)
	if c != nil {
		if env.Reachable(host, c.IP) {
			b.reuse(c, why, out)
			return
		}
		out.Got421 = true
		if b.Rec != nil {
			b.emit(obs.Event{Kind: obs.KindMisdirected, Host: host, Conn: c.Host, Detail: "ip"})
		}
		why = reasonNew421
	}
	b.connectFresh(env, host, addrs, why, out)
}

// reuse satisfies the request on pooled connection c, found for reason.
func (b *Browser) reuse(c *Conn, reason Reason, out *Outcome) {
	out.Reason = reason
	out.ConnHost = c.Host
	out.Proto = c.Proto
	b.markUsed(c)
	if b.Rec != nil {
		b.emit(obs.Event{Kind: obs.KindCoalesceHit, Host: out.Host, Conn: c.Host, Detail: reason.String()})
	}
}

// findByOrigin returns a pooled connection whose origin set contains
// host and whose certificate covers it.
func (b *Browser) findByOrigin(host string) *Conn {
	for _, c := range b.conns {
		if c.Origins[host] && c.covers(host) {
			return c
		}
	}
	return nil
}

// findByIP implements the two IP-matching disciplines. A match comes
// back with reasonIP; no match comes back with the new-connection
// reason for the deepest check any pooled connection passed.
func (b *Browser) findByIP(host string, answer []netip.Addr) (*Conn, Reason) {
	miss := reasonNewFirst
	for _, c := range b.conns {
		if !c.covers(host) {
			miss = max(miss, reasonNewSANMissing)
			continue
		}
		// HTTP/1.1 connections are keep-alive only: a second hostname
		// cannot ride them even when the certificate would allow it.
		if b.Proto == ProtoH1 && c.Host != host {
			miss = max(miss, reasonNewH1)
			continue
		}
		miss = reasonNewIPMismatch
		switch b.Policy {
		case PolicyChromium:
			// Only the connected address survives in Chromium's set.
			for _, a := range answer {
				if a == c.IP {
					return c, reasonIP
				}
			}
		case PolicyFirefox, PolicyFirefoxOrigin:
			// Transitivity over the cached available-set.
			for _, a := range answer {
				for _, av := range c.Available {
					if a == av {
						return c, reasonIP
					}
				}
			}
		}
	}
	return nil, miss
}

// lookup resolves host, retrying failed queries up to MaxRetries with
// exponential-backoff accounting. Every attempt is a real query and
// counts toward DNSQueries. An empty-but-successful answer is not a
// fault (it is neither retried nor negatively cached), but it fails the
// lookup with errNoAddresses.
//
// When a cache is installed it is consulted first: a positive hit
// serves the cached answer without touching the environment (no DNS
// query is issued or counted), and a negative hit fails the lookup
// immediately — a cached failure is definitive, so it consumes no
// retry budget. Wire answers populate the cache with the answer's TTL
// when the environment exposes one (TTLLookuper), or the cache's
// default TTL otherwise; terminal failures populate the negative
// cache.
func (b *Browser) lookup(env Environment, host string, out *Outcome) ([]netip.Addr, error) {
	if b.Cache != nil {
		if addrs, negative, ok := b.Cache.LookupDNS(host); ok {
			if negative {
				out.NegCacheHit = true
				if b.Rec != nil {
					b.emit(obs.Event{Kind: obs.KindDNSCacheHit, Host: host, Detail: "negative"})
				}
				return nil, errNegativeCache
			}
			out.DNSCacheHits++
			if b.Rec != nil {
				b.emit(obs.Event{Kind: obs.KindDNSCacheHit, Host: host})
			}
			return answer(addrs)
		}
	}
	for try := 0; ; try++ {
		out.DNSQueries++
		if b.Rec != nil {
			b.emit(obs.Event{Kind: obs.KindDNSQuery, Host: host, N: try + 1})
		}
		addrs, ttl, err := b.envLookup(env, host)
		if err == nil {
			if b.Cache != nil && len(addrs) > 0 {
				b.Cache.PutDNS(host, addrs, ttl)
			}
			return answer(addrs)
		}
		if b.Rec != nil {
			b.emit(obs.Event{Kind: obs.KindDNSFail, Host: host, Detail: err.Error()})
		}
		if try >= b.MaxRetries {
			if b.Cache != nil {
				b.Cache.PutNegativeDNS(host)
			}
			return nil, err
		}
		b.retryDelay(try, out)
	}
}

// answer returns a successful lookup's addresses, or errNoAddresses
// when it carried none.
func answer(addrs []netip.Addr) ([]netip.Addr, error) {
	if len(addrs) == 0 {
		return nil, errNoAddresses
	}
	return addrs, nil
}

// envLookup issues one lookup against the environment. Only a
// cache-carrying browser takes the TTLLookuper path — without a cache
// the TTL is unused, and calling Lookup keeps the environment's side
// effects identical to a cache-free build.
func (b *Browser) envLookup(env Environment, host string) ([]netip.Addr, uint32, error) {
	if b.Cache != nil {
		if tl, ok := env.(TTLLookuper); ok {
			return tl.LookupTTL(host)
		}
	}
	addrs, err := env.Lookup(host)
	return addrs, b.Cache.DefaultTTL(), err
}

// retryDelay accounts one retry and its modelled backoff before attempt
// try+1 (exponential in the retry index).
func (b *Browser) retryDelay(try int, out *Outcome) {
	out.Retries++
	if b.Rec != nil {
		d := b.RetryBackoffMs * float64(int64(1)<<try)
		b.emit(obs.Event{Kind: obs.KindRetry, Host: out.Host, N: out.Retries, MS: d})
	}
}

// enforceHostCap applies MaxConnsPerHost before a fresh connection is
// opened for host. At the cap the request is forced onto a reachable
// same-host connection (multiplexing — real browsers queue rather than
// over-open); when every pooled connection for the host is stale (the
// server moved, so reuse would only 421), the oldest are evicted down
// to cap-1 so the replacement fits without leaking dead sockets. It
// reports whether out is final.
func (b *Browser) enforceHostCap(env Environment, host string, out *Outcome) (done bool) {
	if b.MaxConnsPerHost <= 0 {
		return false
	}
	same := 0
	for _, c := range b.conns {
		if c.Host == host {
			same++
		}
	}
	if same < b.MaxConnsPerHost {
		return false
	}
	for _, c := range b.conns {
		if c.Host == host && env.Reachable(host, c.IP) {
			b.reuse(c, reasonPoolCap, out)
			return true
		}
	}
	// Evict the host's least recently used connection until one fewer
	// than the cap is left, building no list of the host's connections.
	for ; same >= b.MaxConnsPerHost; same-- {
		var oldest *Conn
		for _, c := range b.conns {
			if c.Host == host && (oldest == nil || c.lastUse < oldest.lastUse) {
				oldest = c
			}
		}
		b.evict(oldest)
	}
	return false
}

// connectFresh opens a connection for host on its answer addrs, retrying
// faulted attempts; a new connection reports why.
func (b *Browser) connectFresh(env Environment, host string, addrs []netip.Addr, why Reason, out *Outcome) {
	if b.enforceHostCap(env, host, out) {
		return
	}
	if ip, ok := b.dial(env, host, addrs, b.MaxRetries, out); ok {
		b.openConn(env, host, ip, addrs, out)
		out.Reason = why
	}
}

// dial returns the address a fresh connection to host connects to: the
// first of addrs, unless env fails connections, in which case attempts
// rotate through addrs (as clients do when an address misbehaves) until
// one connects or retries are spent; then out.Err is set and ok false.
func (b *Browser) dial(env Environment, host string, addrs []netip.Addr, retries int, out *Outcome) (ip netip.Addr, ok bool) {
	cf, faulty := env.(ConnectFailer)
	if !faulty {
		return addrs[0], true
	}
	for try := 0; ; try++ {
		if try > 0 {
			b.retryDelay(try-1, out)
		}
		ip = addrs[try%len(addrs)]
		err := cf.ConnectFail(host, ip)
		if err == nil {
			return ip, true
		}
		b.emitConn(obs.KindConnectFail, host, ip)
		if try >= retries {
			out.Err = err
			return ip, false
		}
	}
}

// RequestAnonymous fetches host without credentials, as browsers send
// crossorigin=anonymous and fetch()/XHR requests: over a separate pool,
// so it never rides a pooled connection. It pays Request's DNS lookup
// and connection setup, but its connection is not pooled: nothing rides
// it, and MaxConns, MaxConnsPerHost and Preconnect never count it.
func (b *Browser) RequestAnonymous(env Environment, host string) Outcome {
	out := Outcome{Host: host, Proto: b.Proto}
	addrs, err := b.lookup(env, host, &out)
	if err != nil {
		out.Err = err
	} else if ip, ok := b.dial(env, host, addrs, b.MaxRetries, &out); ok {
		b.handshake(host, ip, env.CertSANs(host, ip), b.connProto(env, host), &out)
		out.Reason = reasonNewAnonymous
	}
	b.account(&out)
	return out
}

// openConn builds the connection for host at ip, settles its handshake
// against the warm-path cache, and pools it — evicting the least recently
// used pooled connection first when MaxConns is at its bound. Callers
// account the outcome themselves (Preconnect deliberately does not).
func (b *Browser) openConn(env Environment, host string, ip netip.Addr, addrs []netip.Addr, out *Outcome) *Conn {
	proto := b.connProto(env, host)
	c := b.spareConn()
	c.Host, c.IP, c.Proto = host, ip, proto
	c.SANs = env.CertSANs(host, ip)
	if b.Policy == PolicyChromium {
		// Chromium keeps only the connected address (§2.3).
		c.Available = append(c.Available, ip)
	} else {
		c.Available = append(c.Available, addrs...)
	}
	if b.Policy == PolicyFirefoxOrigin && proto != ProtoH1 {
		if c.Origins == nil {
			c.Origins = map[string]bool{}
		}
		for _, o := range env.OriginSet(host, ip) {
			c.Origins[o] = true
		}
		// The connection's own host is always in its origin set.
		c.Origins[host] = true
	}
	for b.MaxConns > 0 && len(b.conns) >= b.MaxConns {
		b.evict(slices.MinFunc(b.conns, byLastUse))
	}
	b.conns = append(b.conns, c)
	b.markUsed(c)
	b.handshake(host, ip, c.SANs, proto, out)
	if len(c.Origins) > 0 && b.Rec != nil {
		b.emit(obs.Event{Kind: obs.KindOriginFrame, Host: host, N: len(c.Origins)})
	}
	return c
}

// handshake sets up a fresh connection to host at ip, speaking proto,
// whose certificate lists sans, and reports it in out.
func (b *Browser) handshake(host string, ip netip.Addr, sans []string, proto Protocol, out *Outcome) {
	out.ConnHost = host
	out.Proto = proto
	// The warm-path decision (ticket, chain memo, h3 address token) is
	// the cache's; a nil cache answers with the cold full handshake.
	// Tickets and tokens are protocol-keyed: h2 state never resumes an
	// h3 session or vice versa.
	hs := b.Cache.Handshake(host, "", sans, proto.Wire())
	out.Handshake = hs
	switch {
	case hs.Resumed:
		b.TotalResumed++
		b.emitConn(obs.KindTLSResume, host, ip)
	case hs.MemoHit:
		if b.Rec != nil {
			b.emitConn(handshakeKind(proto), host, ip)
			b.emit(obs.Event{Kind: obs.KindCertMemoHit, Host: host})
		}
	default:
		b.emitConn(handshakeKind(proto), host, ip)
	}
	if hs.TokenHit && b.Rec != nil {
		b.emit(obs.Event{Kind: obs.KindAddrTokenHit, Host: host})
	}
	if hs.ZeroRTT() {
		b.emitConn(obs.KindZeroRTT, host, ip)
	}
}

// spareConn returns a blank connection: one that Reset, DropConns or an
// eviction closed, emptied but with its Available capacity and Origins
// map kept, or else a new one.
func (b *Browser) spareConn() *Conn {
	n := len(b.spare)
	if n == 0 {
		return &Conn{}
	}
	c := b.spare[n-1]
	b.spare[n-1] = nil
	b.spare = b.spare[:n-1]
	clear(c.Origins)
	*c = Conn{Available: c.Available[:0], Origins: c.Origins}
	return c
}

// Preconnect opens a speculative connection to host ahead of any
// request — the pre-connect sockets aggressive clients race against
// the parser. The DNS and handshake work is real (TotalDNS and the
// warm-path totals move) but no request is satisfied: the socket joins
// the pool unused, and only a later request that rides it converts it
// from a wasted socket into a win (TotalPreconnsUsed). Nothing is
// opened — and false is returned — when the host already has a pooled
// connection, the lookup fails, or the connection attempt faults.
func (b *Browser) Preconnect(env Environment, host string) bool {
	for _, c := range b.conns {
		if c.Host == host {
			return false
		}
	}
	out := Outcome{Host: host, Proto: b.Proto}
	addrs, err := b.lookup(env, host, &out)
	b.TotalDNS += out.DNSQueries
	if err != nil {
		return false
	}
	// Speculative sockets get no retry budget: a faulted attempt is
	// simply abandoned.
	ip, ok := b.dial(env, host, addrs, 0, &out)
	if !ok {
		return false
	}
	c := b.openConn(env, host, ip, addrs, &out)
	c.speculative = true
	c.used = false
	b.TotalPreconns++
	return true
}

func (b *Browser) account(out *Outcome) {
	b.TotalDNS += out.DNSQueries
	switch {
	case out.NewConnection():
		b.TotalNewConn++
	case out.Reused():
		b.TotalReused++
	}
	if out.Got421 {
		b.Total421++
	}
	if b.Rec != nil {
		obs.Count(b.Rec, "browser.dns_queries", int64(out.DNSQueries))
		obs.Count(b.Rec, "browser.requests", 1)
		if out.NewConnection() {
			obs.Count(b.Rec, "browser.new_conns", 1)
		}
		if out.Reused() {
			obs.Count(b.Rec, "browser.reused", 1)
		}
		if out.Got421 {
			obs.Count(b.Rec, "browser.421", 1)
		}
		if out.Retries > 0 {
			obs.Count(b.Rec, "browser.retries", int64(out.Retries))
		}
		if out.Err != nil {
			obs.Count(b.Rec, "browser.failed", 1)
		}
		if out.DNSCacheHits > 0 {
			obs.Count(b.Rec, "browser.dns_cache_hits", int64(out.DNSCacheHits))
		}
		if out.Handshake.Resumed {
			obs.Count(b.Rec, "browser.tls_resumed", 1)
		}
		if out.Handshake.MemoHit {
			obs.Count(b.Rec, "browser.cert_memo_hits", 1)
		}
		if out.NewConnection() && out.Proto == ProtoH3 {
			obs.Count(b.Rec, "browser.quic_handshakes", 1)
		}
		if out.Handshake.ZeroRTT() {
			obs.Count(b.Rec, "browser.zero_rtt", 1)
		}
		if out.Handshake.TokenHit {
			obs.Count(b.Rec, "browser.addr_token_hits", 1)
		}
	}
}
