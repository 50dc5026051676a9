package h2_test

import (
	"crypto/tls"
	"net"
	"slices"
	"testing"

	"respectorigin/internal/certs"
	"respectorigin/internal/h2"
	"respectorigin/internal/hpack"
)

// TestTLSEndToEndOriginCoalescing runs the full stack the paper's
// deployment needed: a TLS server presenting a certificate whose SANs
// cover both the site and the shared third-party domain, speaking
// HTTP/2 with an ORIGIN frame, and a client that verifies the
// certificate, receives the origin set, and issues a request for the
// second hostname on the same connection.
func TestTLSEndToEndOriginCoalescing(t *testing.T) {
	const (
		site  = "www.site.example"
		third = "cdnjs.shared.example"
	)
	ca, err := certs.NewCA("E2E Test CA")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(site, third)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	srv := &h2.Server{
		Handler: h2.HandlerFunc(func(w *h2.ResponseWriter, r *h2.Request) {
			w.WriteHeader(200, hpack.HeaderField{Name: "x-served-host", Value: r.Authority})
			w.Write([]byte("payload for " + r.Authority + r.Path))
		}),
		OriginSet: []string{third},
		Authoritative: func(authority string) bool {
			return authority == site || authority == third
		},
	}
	serverTLS := &tls.Config{
		Certificates: []tls.Certificate{leaf.TLSCertificate()},
		NextProtos:   []string{"h2"},
	}
	serverErr := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		serverErr <- srv.ServeConn(tls.Server(nc, serverTLS))
	}()

	clientTLS := &tls.Config{
		RootCAs:    ca.Pool(),
		ServerName: site,
		NextProtos: []string{"h2"},
	}
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc := tls.Client(raw, clientTLS)
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	if tc.ConnectionState().NegotiatedProtocol != "h2" {
		t.Fatalf("ALPN = %q", tc.ConnectionState().NegotiatedProtocol)
	}

	cc, err := h2.NewClientConn(tc, h2.ClientConnOptions{Origin: site})
	if err != nil {
		t.Fatal(err)
	}

	// First request: the site itself.
	resp, err := cc.Get(site, "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "payload for "+site+"/index.html" {
		t.Fatalf("site response: %d %q", resp.Status, resp.Body)
	}

	// The ORIGIN frame arrived before the first response; the client's
	// origin set plus the real certificate authorize the third party.
	if !slices.Contains(cc.OriginSet().All(), "https://"+third) {
		t.Fatalf("origin set missing %s: %v", third, cc.OriginSet().All())
	}
	if !cc.CanRequest(third) {
		t.Fatal("CanRequest(third) = false despite ORIGIN + SAN coverage")
	}

	// Coalesced request on the SAME connection, different authority.
	resp, err = cc.Get(third, "/lib.js")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("third-party status = %d", resp.Status)
	}
	if got := resp.HeaderValue("x-served-host"); got != third {
		t.Errorf("served host = %q", got)
	}

	// A host outside the certificate must not be requestable even if a
	// rogue ORIGIN frame listed it.
	if cc.CanRequest("evil.example") {
		t.Error("CanRequest accepted uncovered host")
	}

	// An authority the server does not serve yields 421.
	resp, err = cc.Get("unrelated.example", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 421 {
		t.Errorf("unrelated authority status = %d, want 421", resp.Status)
	}

	cc.Close()
	if err := <-serverErr; err != nil {
		t.Errorf("server: %v", err)
	}
}

// TestTLSCertificateSANVerification checks the default VerifyOrigin
// path: CanRequest must consult the real leaf certificate when the
// transport is crypto/tls.
func TestTLSCertificateSANVerification(t *testing.T) {
	const site = "www.covered.example"
	ca, _ := certs.NewCA("E2E CA 2")
	leaf, _ := ca.Issue(site, "also.covered.example")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := &h2.Server{
		Handler:   h2.HandlerFunc(func(w *h2.ResponseWriter, r *h2.Request) { w.WriteHeader(204) }),
		OriginSet: []string{"also.covered.example", "not-covered.example"},
	}
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		srv.ServeConn(tls.Server(nc, &tls.Config{
			Certificates: []tls.Certificate{leaf.TLSCertificate()},
			NextProtos:   []string{"h2"},
		}))
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc := tls.Client(raw, &tls.Config{RootCAs: ca.Pool(), ServerName: site, NextProtos: []string{"h2"}})
	cc, err := h2.NewClientConn(tc, h2.ClientConnOptions{Origin: site})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if _, err := cc.Get(site, "/"); err != nil {
		t.Fatal(err)
	}

	if !cc.CanRequest("also.covered.example") {
		t.Error("SAN-covered origin rejected")
	}
	// In the origin set but NOT in the certificate: must be rejected by
	// the default tls.Conn SAN verification.
	if cc.CanRequest("not-covered.example") {
		t.Error("origin without SAN coverage accepted")
	}
}
