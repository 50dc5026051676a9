package doh

import (
	"encoding/base64"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"

	"respectorigin/internal/dns"
	"respectorigin/internal/h2"
	"respectorigin/internal/hpack"
)

// startDoH serves a DoH handler over an in-memory h2 connection and
// returns a client for it, the count of queries the server answered, and
// a stop func.
func startDoH(t *testing.T) (*Client, *atomic.Int64, func()) {
	t.Helper()
	auth := dns.NewAuthority()
	auth.AddA("www.example.com", netip.MustParseAddr("192.0.2.10"), netip.MustParseAddr("192.0.2.11"))

	handler := &Handler{Authority: auth}
	served := new(atomic.Int64)
	srv := &h2.Server{Handler: h2.HandlerFunc(func(w *h2.ResponseWriter, r *h2.Request) {
		served.Add(1)
		handler.ServeHTTP2(w, r)
	})}
	cn, sn := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(sn)
		close(done)
	}()
	cc, err := h2.NewClientConn(cn, h2.ClientConnOptions{Origin: "doh.resolver.example"})
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(cc, "doh.resolver.example")
	return client, served, func() {
		cc.Close()
		<-done
	}
}

func TestLookupAOverDoH(t *testing.T) {
	client, served, stop := startDoH(t)
	defer stop()

	addrs, err := client.LookupA("www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != netip.MustParseAddr("192.0.2.10") {
		t.Errorf("addrs = %v", addrs)
	}
	if client.Queries() != 1 || served.Load() != 1 {
		t.Errorf("counters: client=%d server=%d", client.Queries(), served.Load())
	}
}

func TestNXDomainOverDoH(t *testing.T) {
	client, _, stop := startDoH(t)
	defer stop()
	_, err := client.LookupA("missing.example.com")
	if _, ok := err.(*dns.NXDomainError); !ok {
		t.Errorf("want NXDomainError, got %v", err)
	}
}

func TestConcurrentQueriesMultiplex(t *testing.T) {
	client, served, stop := startDoH(t)
	defer stop()
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.LookupA("www.example.com"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if served.Load() != 30 {
		t.Errorf("served = %d", served.Load())
	}
}

func TestGETQueryPath(t *testing.T) {
	client, _, stop := startDoH(t)
	defer stop()

	q := &dns.Message{
		Header:    dns.Header{RD: true},
		Questions: []dns.Question{{Name: "www.example.com", Type: dns.TypeA, Class: dns.ClassINET}},
	}
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	path := path + "?dns=" + base64.RawURLEncoding.EncodeToString(wire) // RFC 8484 §4.1
	resp, err := client.cc.RoundTrip(&h2.Request{
		Method: "GET", Scheme: "https", Authority: "doh.resolver.example", Path: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	msg, err := dns.Unpack(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Answers) != 2 {
		t.Errorf("answers = %v", msg.Answers)
	}
}

func TestRejectsWrongContentType(t *testing.T) {
	client, _, stop := startDoH(t)
	defer stop()
	resp, err := client.cc.RoundTrip(&h2.Request{
		Method: "POST", Scheme: "https", Authority: "doh.resolver.example", Path: path,
		Header: []hpack.HeaderField{{Name: "content-type", Value: "text/plain"}},
		Body:   []byte("not dns"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 415 {
		t.Errorf("status = %d, want 415", resp.Status)
	}
}

func TestRejectsWrongPathAndMethod(t *testing.T) {
	client, _, stop := startDoH(t)
	defer stop()
	resp, _ := client.cc.RoundTrip(&h2.Request{
		Method: "GET", Scheme: "https", Authority: "doh.resolver.example", Path: "/other",
	})
	if resp.Status != 404 {
		t.Errorf("wrong path status = %d", resp.Status)
	}
	resp, _ = client.cc.RoundTrip(&h2.Request{
		Method: "DELETE", Scheme: "https", Authority: "doh.resolver.example", Path: path,
	})
	if resp.Status != 405 {
		t.Errorf("wrong method status = %d", resp.Status)
	}
	resp, _ = client.cc.RoundTrip(&h2.Request{
		Method: "GET", Scheme: "https", Authority: "doh.resolver.example", Path: path + "?dns=!!!bad",
	})
	if resp.Status != 400 {
		t.Errorf("bad base64 status = %d", resp.Status)
	}
}
