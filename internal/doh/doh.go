// Package doh implements DNS over HTTPS (RFC 8484) on top of this
// repository's own HTTP/2 and DNS stacks. It exists for the §6.2
// privacy discussion: DoH hides query contents from on-path observers,
// while connection coalescing removes the queries entirely — the two
// compose, and this package lets both be exercised on real wire formats.
//
// The server side is an h2.Handler serving application/dns-message on
// /dns-query; the client side is a resolver that multiplexes queries as
// HTTP/2 POST requests over a single connection.
package doh

import (
	"encoding/base64"
	"fmt"
	"net/netip"
	"strings"
	"sync"

	"respectorigin/internal/dns"
	"respectorigin/internal/h2"
	"respectorigin/internal/hpack"
)

// contentType is the RFC 8484 media type.
const contentType = "application/dns-message"

// path is the conventional resolution endpoint.
const path = "/dns-query"

// Handler serves RFC 8484 queries from a dns.Authority.
type Handler struct {
	Authority *dns.Authority
}

// ServeHTTP2 implements h2.Handler.
func (h *Handler) ServeHTTP2(w *h2.ResponseWriter, r *h2.Request) {
	if !strings.HasPrefix(r.Path, path) {
		w.WriteHeader(404)
		return
	}
	var query []byte
	switch r.Method {
	case "POST":
		if r.HeaderValue("content-type") != contentType {
			w.WriteHeader(415)
			return
		}
		query = r.Body
	case "GET":
		// RFC 8484 §4.1: ?dns=<base64url(message)>.
		idx := strings.Index(r.Path, "dns=")
		if idx < 0 {
			w.WriteHeader(400)
			return
		}
		enc := r.Path[idx+4:]
		if amp := strings.IndexByte(enc, '&'); amp >= 0 {
			enc = enc[:amp]
		}
		raw, err := base64.RawURLEncoding.DecodeString(enc)
		if err != nil {
			w.WriteHeader(400)
			return
		}
		query = raw
	default:
		w.WriteHeader(405)
		return
	}
	resp, err := h.Authority.HandleWire(query)
	if err != nil {
		w.WriteHeader(500)
		return
	}
	w.WriteHeader(200,
		hpack.HeaderField{Name: "content-type", Value: contentType},
		hpack.HeaderField{Name: "cache-control", Value: "max-age=300"},
	)
	w.Write(resp)
}

// Client resolves names over an established HTTP/2 connection to a DoH
// server. It is safe for concurrent use; queries multiplex as streams.
type Client struct {
	cc        *h2.ClientConn
	authority string // :authority of the DoH server

	mu      sync.Mutex
	queries int64
}

// NewClient wraps an HTTP/2 connection to a DoH server.
func NewClient(cc *h2.ClientConn, authority string) *Client {
	return &Client{cc: cc, authority: authority}
}

// Queries reports how many DoH queries were sent.
func (c *Client) Queries() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queries
}

// LookupA resolves a hostname's IPv4 addresses via RFC 8484 POST.
func (c *Client) LookupA(name string) ([]netip.Addr, error) {
	c.mu.Lock()
	// RFC 8484 §4.1 recommends ID 0 for cache friendliness.
	id := uint16(0)
	c.queries++
	c.mu.Unlock()

	q := &dns.Message{
		Header:    dns.Header{ID: id, RD: true},
		Questions: []dns.Question{{Name: name, Type: dns.TypeA, Class: dns.ClassINET}},
	}
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	resp, err := c.cc.RoundTrip(&h2.Request{
		Method:    "POST",
		Scheme:    "https",
		Authority: c.authority,
		Path:      path,
		Header: []hpack.HeaderField{
			{Name: "content-type", Value: contentType},
			{Name: "accept", Value: contentType},
		},
		Body: wire,
	})
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("doh: server returned %d", resp.Status)
	}
	if resp.HeaderValue("content-type") != contentType {
		return nil, fmt.Errorf("doh: unexpected content type %q", resp.HeaderValue("content-type"))
	}
	msg, err := dns.Unpack(resp.Body)
	if err != nil {
		return nil, err
	}
	if msg.Header.Rcode == dns.RcodeNameError {
		return nil, &dns.NXDomainError{Name: name}
	}
	if msg.Header.Rcode != dns.RcodeSuccess {
		return nil, fmt.Errorf("doh: rcode %d for %s", msg.Header.Rcode, name)
	}
	var addrs []netip.Addr
	for _, rr := range msg.Answers {
		if rr.Type == dns.TypeA {
			addrs = append(addrs, rr.Addr)
		}
	}
	return addrs, nil
}
