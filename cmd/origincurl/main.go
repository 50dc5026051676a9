// Command origincurl fetches one or more https URLs over a single
// HTTP/2 connection, reporting the server's ORIGIN frame and every
// coalescing decision — a curl for connection coalescing.
//
// All URLs are fetched through the connection established to the first
// URL's host; hosts beyond the first succeed only when the origin set
// plus certificate authorize coalescing (or -force is given, which
// demonstrates 421 Misdirected Request handling).
//
// Usage:
//
//	origincurl -connect 127.0.0.1:8443 -ca ca.pem \
//	    https://www.site.example/ https://cdnjs.shared.example/lib.js
//
// With -chaos the underlying TCP connection is wrapped in a seeded
// fault layer (resets after a byte budget, loss-driven read delays), so
// the client's deadline/keepalive handling can be exercised against a
// real server:
//
//	origincurl -chaos reset=1,loss=2 -chaos-seed 7 -timeout 5s -ping 2s ...
package main

import (
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"respectorigin/internal/faults"
	"respectorigin/internal/h2"
)

func main() {
	connect := flag.String("connect", "", "host:port to connect to (default: first URL host :443)")
	caFile := flag.String("ca", "", "PEM file with the trusted CA certificate")
	insecure := flag.Bool("insecure", false, "skip certificate verification")
	force := flag.Bool("force", false, "send requests for non-coalescable hosts anyway")
	chaosSpec := flag.String("chaos", "", "fault plan for the transport, e.g. reset=1,loss=2 (empty: none)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the -chaos fault schedule")
	timeout := flag.Duration("timeout", 0, "per-frame read/write deadline on the HTTP/2 connection (0: none)")
	ping := flag.Duration("ping", 0, "PING keepalive interval (0: disabled)")
	flag.Parse()

	urls := flag.Args()
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "usage: origincurl [flags] https://host/path ...")
		os.Exit(2)
	}
	firstHost, _ := splitURL(urls[0])
	addr := *connect
	if addr == "" {
		addr = firstHost + ":443"
	}

	tlsCfg := &tls.Config{
		ServerName: firstHost,
		NextProtos: []string{"h2"},
	}
	if *insecure {
		tlsCfg.InsecureSkipVerify = true
	} else if *caFile != "" {
		pemBytes, err := os.ReadFile(*caFile)
		if err != nil {
			log.Fatal(err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pemBytes) {
			log.Fatalf("no certificates in %s", *caFile)
		}
		tlsCfg.RootCAs = pool
	}

	plan, err := faults.ParsePlan(*chaosSpec)
	if err != nil {
		log.Fatalf("origincurl: %v", err)
	}
	inj := faults.NewInjector(plan, *chaosSeed)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	var nc net.Conn = raw
	if inj.Enabled() {
		// Wrapping below TLS means an injected reset can land anywhere —
		// including inside the handshake, like a real mid-path RST.
		chaos := faults.NewChaosConn(raw, inj)
		if b := chaos.Budget(); b >= 0 {
			fmt.Printf("chaos: reset scheduled after %d bytes\n", b)
		}
		nc = chaos
	}
	tc := tls.Client(nc, tlsCfg)
	if err := tc.Handshake(); err != nil {
		log.Fatal(err)
	}
	opts := h2.ClientConnOptions{
		Origin: firstHost,
		OnOrigin: func(origins []string) {
			fmt.Printf("<- ORIGIN frame: %v\n", origins)
		},
		ReadTimeout:  *timeout,
		WriteTimeout: *timeout,
	}
	if *ping > 0 {
		opts.PingInterval = *ping
		if opts.ReadTimeout > 0 && opts.ReadTimeout <= *ping {
			// A read deadline shorter than the keepalive period would kill
			// idle-but-healthy connections before the first PING.
			opts.ReadTimeout = *ping + time.Second
		}
	}
	cc, err := h2.NewClientConn(tc, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer cc.Close()

	for _, u := range urls {
		host, path := splitURL(u)
		coalescable := host == firstHost || cc.CanRequest(host)
		fmt.Printf("-> GET https://%s%s", host, path)
		switch {
		case host == firstHost:
			fmt.Printf("  [primary connection]\n")
		case coalescable:
			fmt.Printf("  [coalesced: origin set + certificate authorize %s]\n", host)
		case *force:
			fmt.Printf("  [NOT authorized - sending anyway to demonstrate 421]\n")
		default:
			fmt.Printf("  [skipped: connection not authoritative for %s]\n", host)
			continue
		}
		resp, err := cc.Get(host, path)
		if err != nil {
			fmt.Printf("<- error: %v\n", err)
			continue
		}
		fmt.Printf("<- %d (%d body bytes, stream %d)\n", resp.Status, len(resp.Body), resp.StreamID)
		if resp.Status == 421 {
			fmt.Printf("   421 Misdirected Request: the server does not serve %s on this connection\n", host)
		}
	}
	fmt.Printf("origin set on this connection: %v\n", cc.OriginSet().All())
	if inj.Enabled() {
		fmt.Print(inj.Report())
	}
}

func splitURL(u string) (host, path string) {
	s := strings.TrimPrefix(u, "https://")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i:]
	}
	return s, "/"
}
