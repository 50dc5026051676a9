package doh

import (
	"errors"
	"net/netip"
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/dns"
)

// dohTTLSeconds mirrors the handler's cache-control max-age: the
// freshness lifetime a DoH answer carries into the client's DNS cache.
const dohTTLSeconds = 300

// resolveH3 is the DoH-fed h3 lookup path: consult the warm-path DNS
// cache first, fall back to a wire DoH query, and record the answer —
// positive under the DoH freshness lifetime, NXDOMAIN in the negative
// cache — exactly as a browser's resolver feeds its QUIC connector.
func resolveH3(cc *cache.Cache, client *Client, host string) (addrs []netip.Addr, cached bool, err error) {
	if got, negative, ok := cc.LookupDNS(host); ok {
		if negative {
			return nil, true, &dns.NXDomainError{Name: host}
		}
		return got, true, nil
	}
	addrs, err = client.LookupA(host)
	var nx *dns.NXDomainError
	if errors.As(err, &nx) {
		cc.PutNegativeDNS(host)
		return nil, false, err
	}
	if err != nil {
		return nil, false, err
	}
	cc.PutDNS(host, addrs, dohTTLSeconds)
	return addrs, false, nil
}

// A DoH-resolved lookup feeds a QUIC connection: the cold visit pays a
// wire query and the full 2-RTT establishment, the warm revisit is a
// DNS-cache hit riding straight into a 0-RTT handshake — no DoH query,
// no Retry, no certificate validation.
func TestDoHResolvedLookupFeedsQUICConnection(t *testing.T) {
	client, served, stop := startDoH(t)
	defer stop()
	cc := cache.New(cache.Options{})
	sans := []string{"www.example.com", "*.example.com"}

	addrs, cached, err := resolveH3(cc, client, "www.example.com")
	if err != nil || cached || len(addrs) != 2 {
		t.Fatalf("cold resolve: addrs=%v cached=%v err=%v", addrs, cached, err)
	}
	h := cc.Handshake("www.example.com", "", sans, cache.ProtoWireH3)
	if h.Resumed || h.TokenHit {
		t.Fatalf("cold establishment not full-no-token: %+v", h)
	}

	// Warm revisit: same cache, fresh connection.
	addrs, cached, err = resolveH3(cc, client, "www.example.com")
	if err != nil || !cached || len(addrs) != 2 {
		t.Fatalf("warm resolve: addrs=%v cached=%v err=%v", addrs, cached, err)
	}
	h = cc.Handshake("www.example.com", "", sans, cache.ProtoWireH3)
	if !h.ZeroRTT() {
		t.Fatalf("warm establishment not 0-RTT: %+v", h)
	}
	if client.Queries() != 1 || served.Load() != 1 {
		t.Fatalf("warm revisit hit the wire: client=%d server=%d", client.Queries(), served.Load())
	}

	// SAN coverage extends both the ticket and the token across
	// hostnames: a first visit to a covered sibling is already 0-RTT.
	if h := cc.Handshake("static.example.com", "", sans, cache.ProtoWireH3); !h.ZeroRTT() {
		t.Fatalf("SAN-covered sibling not 0-RTT: %+v", h)
	}
}

// The cached DoH answer dies exactly at its max-age boundary: one
// millisecond before expiry it still feeds the connection, at expiry
// the resolver goes back to the wire.
func TestDoHAnswerTTLBoundary(t *testing.T) {
	client, _, stop := startDoH(t)
	defer stop()
	cc := cache.New(cache.Options{})

	if _, _, err := resolveH3(cc, client, "www.example.com"); err != nil {
		t.Fatal(err)
	}
	cc.Clock().AdvanceMs(dohTTLSeconds*1000 - 1)
	if _, cached, err := resolveH3(cc, client, "www.example.com"); err != nil || !cached {
		t.Fatalf("1ms before max-age: cached=%v err=%v", cached, err)
	}
	if client.Queries() != 1 {
		t.Fatalf("fresh answer re-queried: %d queries", client.Queries())
	}
	cc.Clock().AdvanceMs(1)
	if _, cached, err := resolveH3(cc, client, "www.example.com"); err != nil || cached {
		t.Fatalf("at max-age: cached=%v err=%v", cached, err)
	}
	if client.Queries() != 2 {
		t.Fatalf("expired answer not re-queried: %d queries", client.Queries())
	}
}

// An NXDOMAIN over DoH lands in the negative cache: the retry is
// answered locally (no wire query) and no QUIC connection is attempted;
// once the negative TTL passes, the resolver asks the wire again.
func TestDoHNXDomainNegativeCache(t *testing.T) {
	client, _, stop := startDoH(t)
	defer stop()
	cc := cache.New(cache.Options{})

	var nx *dns.NXDomainError
	if _, cached, err := resolveH3(cc, client, "nohost.example.com"); !errors.As(err, &nx) || cached {
		t.Fatalf("cold NXDOMAIN: cached=%v err=%v", cached, err)
	}
	if _, cached, err := resolveH3(cc, client, "nohost.example.com"); !errors.As(err, &nx) || !cached {
		t.Fatalf("negative-cache hit: cached=%v err=%v", cached, err)
	}
	if client.Queries() != 1 {
		t.Fatalf("negative hit went to the wire: %d queries", client.Queries())
	}
	// The failed lookup minted no h3 warm state for the name.
	if h := cc.Handshake("nohost.example.com", "", nil, cache.ProtoWireH3); h.Resumed || h.TokenHit {
		t.Fatalf("NXDOMAIN produced warm h3 state: %+v", h)
	}
	// Past the negative TTL the name is retried on the wire.
	cc.Clock().AdvanceMs(60_000) // the cache's 60 s negative TTL
	if _, cached, err := resolveH3(cc, client, "nohost.example.com"); !errors.As(err, &nx) || cached {
		t.Fatalf("post-TTL retry: cached=%v err=%v", cached, err)
	}
	if client.Queries() != 2 {
		t.Fatalf("expired negative entry not re-queried: %d queries", client.Queries())
	}
}
