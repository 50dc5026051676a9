// Private-resolver demonstrates the §6.2 privacy story end to end with
// real protocol machinery:
//
//  1. a DNS-over-HTTPS resolver (RFC 8484) runs on this repository's
//     own HTTP/2 stack, so lookups leave no cleartext queries;
//
//  2. an ORIGIN-enabled web server lets the client coalesce the
//     third-party fetch, so the *second* lookup and handshake never
//     happen at all;
//
//  3. the privacy analyzer compares the cleartext footprint of four
//     client configurations over a synthetic corpus.
//
//     go run ./examples/private-resolver
package main

import (
	"crypto/tls"
	"fmt"
	"log"
	"net"
	"net/netip"

	"respectorigin/internal/certs"
	"respectorigin/internal/dns"
	"respectorigin/internal/doh"
	"respectorigin/internal/h2"
	"respectorigin/internal/privacy"
	"respectorigin/internal/webgen"
)

func main() {
	// --- 1. A DoH resolver over our own HTTP/2 ---
	auth := dns.NewAuthority()
	auth.AddA("www.shop.test", netip.MustParseAddr("203.0.113.10"))
	auth.AddA("cdnjs.shared.test", netip.MustParseAddr("203.0.113.99"))

	ca, err := certs.NewCA("Private Resolver CA")
	if err != nil {
		log.Fatal(err)
	}
	dohLeaf, err := ca.Issue("doh.resolver.test")
	if err != nil {
		log.Fatal(err)
	}
	dohSrv := &h2.Server{Handler: &doh.Handler{Authority: auth}}
	dohClientEnd, dohServerEnd := net.Pipe()
	go dohSrv.ServeConn(tls.Server(dohServerEnd, &tls.Config{
		Certificates: []tls.Certificate{dohLeaf.TLSCertificate()},
		NextProtos:   []string{"h2"},
	}))
	dohConn, err := h2.NewClientConn(tls.Client(dohClientEnd, &tls.Config{
		RootCAs: ca.Pool(), ServerName: "doh.resolver.test", NextProtos: []string{"h2"},
	}), h2.ClientConnOptions{Origin: "doh.resolver.test"})
	if err != nil {
		log.Fatal(err)
	}
	defer dohConn.Close()
	resolver := doh.NewClient(dohConn, "doh.resolver.test")

	addrs, err := resolver.LookupA("www.shop.test")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DoH lookup www.shop.test -> %v  (no cleartext DNS on path)\n", addrs)

	// --- 2. ORIGIN coalescing removes the second lookup entirely ---
	webLeaf, err := ca.Issue("www.shop.test", "cdnjs.shared.test")
	if err != nil {
		log.Fatal(err)
	}
	webSrv := &h2.Server{
		Handler: h2.HandlerFunc(func(w *h2.ResponseWriter, r *h2.Request) {
			w.Write([]byte("content for " + r.Authority))
		}),
		OriginSet: []string{"cdnjs.shared.test"},
	}
	webClientEnd, webServerEnd := net.Pipe()
	go webSrv.ServeConn(tls.Server(webServerEnd, &tls.Config{
		Certificates: []tls.Certificate{webLeaf.TLSCertificate()},
		NextProtos:   []string{"h2"},
	}))
	web, err := h2.NewClientConn(tls.Client(webClientEnd, &tls.Config{
		RootCAs: ca.Pool(), ServerName: "www.shop.test", NextProtos: []string{"h2"},
	}), h2.ClientConnOptions{Origin: "www.shop.test"})
	if err != nil {
		log.Fatal(err)
	}
	defer web.Close()

	if _, err := web.Get("www.shop.test", "/"); err != nil {
		log.Fatal(err)
	}
	if web.CanRequest("cdnjs.shared.test") {
		if _, err := web.Get("cdnjs.shared.test", "/lib.js"); err != nil {
			log.Fatal(err)
		}
		fmt.Println("third-party fetch coalesced: zero additional DNS lookups or handshakes")
	}
	fmt.Printf("DoH queries issued this session: %d (only the first host)\n\n", resolver.Queries())

	// --- 3. Corpus-level comparison ---
	cfg := webgen.DefaultConfig()
	cfg.Sites = 1500
	ds, err := webgen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rows := privacy.AnalyzeCorpus(ds.Pages, privacy.StandardScenarios(), 0)
	fmt.Println(privacy.Report(rows))
}
