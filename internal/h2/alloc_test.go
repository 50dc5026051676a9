package h2_test

import (
	"bytes"
	"crypto/tls"
	"net"
	"testing"

	"respectorigin/internal/certs"
	"respectorigin/internal/h2"
	"respectorigin/internal/hpack"
)

// roundTripAllocBudget is what one warm small GET may allocate, client
// and server together. It measures 7: one stream object a side (the
// client's holds the Response), the response's header slice and body,
// the handler goroutine's closure and crypto/tls's two per-record reads.
// Everything else on the request path reuses connection-owned storage,
// and one more object a side (9) fails the budget.
const roundTripAllocBudget = 8 + racePoolSlack

// TestRoundTripAllocBudget holds a warm ClientConn + Server pair to the
// h2-live workload's request shape: net.Pipe + crypto/tls, a 4-SAN leaf,
// the ORIGIN frame set, a 512-byte body and hosts in rotation.
func TestRoundTripAllocBudget(t *testing.T) {
	hosts := []string{"www.alloc.test", "static.alloc.test", "img.alloc.test", "cdnjs.shared.test"}
	ca, err := certs.NewCA("alloc budget CA")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(hosts...)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("origin"), 512/6+1)[:512]
	srv := &h2.Server{
		Handler: h2.HandlerFunc(func(w *h2.ResponseWriter, r *h2.Request) {
			w.WriteHeader(200, hpack.HeaderField{Name: "content-type", Value: "application/octet-stream"})
			w.Write(body)
		}),
		OriginSet:     hosts,
		Authoritative: func(string) bool { return true },
	}
	clientEnd, serverEnd := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.ServeConn(tls.Server(serverEnd, &tls.Config{
			Certificates: []tls.Certificate{leaf.TLSCertificate()},
			NextProtos:   []string{"h2"},
		}))
	}()
	tc := tls.Client(clientEnd, &tls.Config{RootCAs: ca.Pool(), ServerName: hosts[0], NextProtos: []string{"h2"}})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	cc, err := h2.NewClientConn(tc, h2.ClientConnOptions{Origin: hosts[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cc.Close()
		<-served
	}()

	i := 0
	get := func() {
		host := hosts[i%len(hosts)]
		i++
		resp, err := cc.Get(host, "/small")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || !bytes.Equal(resp.Body, body) {
			t.Fatalf("GET %s: status %d, %d-byte body", host, resp.Status, len(resp.Body))
		}
	}
	// Warm-up: every host's :authority and the response's content-type
	// enter both HPACK tables, and every connection-owned buffer grows.
	for range 64 {
		get()
	}
	allocs := testing.AllocsPerRun(400, get)
	t.Logf("a warm small GET allocates %.2f objects (client and server)", allocs)
	if allocs > roundTripAllocBudget {
		t.Errorf("a warm small GET allocates %.2f objects (client and server), budget %d", allocs, roundTripAllocBudget)
	}
}
