// Command originserver runs an HTTPS HTTP/2 server with RFC 8336
// ORIGIN frame support — the server-side implementation the paper
// found missing from every production web server.
//
// It generates a private CA and a leaf certificate covering every
// configured hostname, serves all of them on one listener, and
// advertises the configured origin set on stream 0 of every connection.
//
// Usage:
//
//	originserver -listen 127.0.0.1:8443 \
//	    -hosts www.site.example,static.site.example,cdnjs.shared.example \
//	    -origins static.site.example,cdnjs.shared.example \
//	    -ca-out ca.pem
//
// Connect with cmd/origincurl using the emitted CA certificate.
package main

import (
	"crypto/tls"
	"encoding/pem"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	_ "net/http/pprof"

	"respectorigin/internal/certs"
	"respectorigin/internal/h2"
	"respectorigin/internal/hpack"
	"respectorigin/internal/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8443", "listen address")
	hosts := flag.String("hosts", "www.site.example,cdnjs.shared.example", "comma-separated hostnames on the certificate")
	origins := flag.String("origins", "", "comma-separated origin set (default: all hosts)")
	caOut := flag.String("ca-out", "", "write the CA certificate PEM here for clients")
	metricsAddr := flag.String("metrics-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address")
	flag.Parse()

	hostList := splitNonEmpty(*hosts)
	if len(hostList) == 0 {
		log.Fatal("originserver: -hosts must name at least one hostname")
	}
	originList := splitNonEmpty(*origins)
	if len(originList) == 0 {
		originList = hostList
	}

	ca, err := certs.NewCA("originserver CA")
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := ca.Issue(hostList...)
	if err != nil {
		log.Fatal(err)
	}
	if *caOut != "" {
		pemBytes := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.Root().Raw})
		if err := os.WriteFile(*caOut, pemBytes, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("CA certificate written to %s", *caOut)
	}

	authoritative := map[string]bool{}
	for _, h := range hostList {
		authoritative[h] = true
	}
	var metrics *obs.Metrics
	if *metricsAddr != "" {
		metrics = obs.NewMetrics()
		metrics.PublishExpvar("originserver")
		go func() {
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/debug/vars (pprof under /debug/pprof)", *metricsAddr)
	}

	srv := &h2.Server{
		Handler: h2.HandlerFunc(func(w *h2.ResponseWriter, r *h2.Request) {
			w.WriteHeader(200,
				hpack.HeaderField{Name: "content-type", Value: "text/plain; charset=utf-8"},
				hpack.HeaderField{Name: "server", Value: "respectorigin/originserver"},
			)
			fmt.Fprintf(w, "hello from %s (path %s)\n", r.Authority, r.Path)
		}),
		OriginSet: originList,
		Authoritative: func(authority string) bool {
			host := authority
			if i := strings.LastIndexByte(host, ':'); i >= 0 {
				host = host[:i]
			}
			return authoritative[host]
		},
	}
	if metrics != nil {
		srv.Rec = metrics
	}

	tlsCfg := &tls.Config{
		Certificates: []tls.Certificate{leaf.TLSCertificate()},
		NextProtos:   []string{"h2"},
	}
	ln, err := tls.Listen("tcp", *listen, tlsCfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving HTTP/2 + ORIGIN on %s", *listen)
	log.Printf("certificate SANs: %v", leaf.SANs())
	log.Printf("origin set:       %v", originList)
	for {
		nc, err := ln.Accept()
		if err != nil {
			log.Printf("accept: %v", err)
			continue
		}
		go func(nc net.Conn) {
			if err := srv.ServeConn(nc); err != nil {
				log.Printf("conn %s: %v", nc.RemoteAddr(), err)
			}
		}(nc)
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
