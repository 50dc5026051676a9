package main

import (
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"respectorigin/internal/certs"
	"respectorigin/internal/h2"
	"respectorigin/internal/hpack"
)

const (
	h2SmallBody = 512
	h2BulkBody  = 256 << 10
	h2OffSet    = "elsewhere.h2live.test" // not on the certificate, not in the origin set
)

var h2Hosts = []string{"www.h2live.test", "static.h2live.test", "img.h2live.test", "cdnjs.shared.test"}

// h2Live is the only real-time path: closed-loop GETs over net.Pipe +
// crypto/tls against internal/h2's server, with a 4-SAN leaf and the
// ORIGIN frame set. Each client goroutine keeps one connection and one
// outstanding request; hosts rotate round-robin once CanRequest has
// admitted them; one request in H2BulkEvery fetches the bulk body; the
// connection is re-dialled every H2Redial requests. The pipe is in
// memory, so wire latency and link rate are not part of any number here.
type h2Live struct {
	sz     sizes
	srv    *h2.Server
	srvTLS *tls.Config
	cliTLS *tls.Config
	small  []byte
	bulk   []byte
	isBulk []bool // request plan: which of the H2Requests fetch the bulk body
	expect []byte // the artifact a fault-free iteration must produce

	mu       sync.Mutex
	counters h2.ConnCounters // summed over finished server connections
	servers  sync.WaitGroup

	// lat is filled only on traced iterations.
	lat *h2Latencies
}

// h2Latencies collects per-request and per-connection timings of a
// traced run in off-heap buffers (see offHeap), so recording neither
// allocates nor grows the heap the collector paces itself by.
type h2Latencies struct {
	mu        sync.Mutex
	smallNs   []int64
	bulkNs    []int64
	setupNs   []int64 // dial + TLS + preface + first GET
	shakeNs   []int64 // TLS handshake + client preface only
	originFrm int
}

func newH2Latencies() (*h2Latencies, error) {
	l := &h2Latencies{}
	for _, b := range []struct {
		dst *[]int64
		n   int
	}{{&l.smallNs, 1 << 22}, {&l.bulkNs, 1 << 18}, {&l.setupNs, 1 << 14}, {&l.shakeNs, 1 << 14}} {
		buf, err := offHeap[int64](b.n)
		if err != nil {
			return nil, err
		}
		*b.dst = buf
	}
	return l, nil
}

// add records one sample, dropping it when the buffer is full.
func (l *h2Latencies) add(dst *[]int64, d time.Duration) {
	l.mu.Lock()
	if len(*dst) < cap(*dst) {
		*dst = append(*dst, int64(d))
	}
	l.mu.Unlock()
}

const recordSize = 7 // host index, status (2), body length (4)

func (w *h2Live) opUnit() string { return "request" }

func (w *h2Live) prepare(seed int64, sz sizes, workers int) error {
	w.sz = sz
	rng := rand.New(rand.NewSource(seed))
	ca, err := certs.NewCA("h2-live CA")
	if err != nil {
		return err
	}
	leaf, err := ca.Issue(h2Hosts...)
	if err != nil {
		return err
	}
	w.small = make([]byte, h2SmallBody)
	w.bulk = make([]byte, h2BulkBody)
	rng.Read(w.small)
	rng.Read(w.bulk)

	// Exactly one bulk fetch per block of H2BulkEvery requests; the seed
	// picks where in the block, so the mix is fixed and the order is not.
	w.isBulk = make([]bool, sz.H2Requests)
	for lo := 0; lo < sz.H2Requests; lo += sz.H2BulkEvery {
		if i := lo + rng.Intn(sz.H2BulkEvery); i < sz.H2Requests {
			w.isBulk[i] = true
		}
	}
	w.expect = make([]byte, sz.H2Requests*recordSize)
	for i := range w.isBulk {
		n := h2SmallBody
		if w.isBulk[i] {
			n = h2BulkBody
		}
		putRecord(w.expect, i, 200, n)
	}

	authoritative := make(map[string]bool, len(h2Hosts))
	for _, h := range h2Hosts {
		authoritative[h] = true
	}
	w.srv = &h2.Server{
		Handler: h2.HandlerFunc(func(rw *h2.ResponseWriter, r *h2.Request) {
			rw.WriteHeader(200, hpack.HeaderField{Name: "content-type", Value: "application/octet-stream"})
			if r.Path == "/bulk" {
				rw.Write(w.bulk)
			} else {
				rw.Write(w.small)
			}
		}),
		OriginSet:     h2Hosts,
		Authoritative: func(authority string) bool { return authoritative[authority] },
		CountersFor: func(c h2.ConnCounters) {
			w.mu.Lock()
			w.counters.StreamsOpened += c.StreamsOpened
			w.counters.FramesRead += c.FramesRead
			w.counters.FramesWritten += c.FramesWritten
			w.counters.Misdirected += c.Misdirected
			w.mu.Unlock()
		},
	}
	w.srvTLS = &tls.Config{Certificates: []tls.Certificate{leaf.TLSCertificate()}, NextProtos: []string{"h2"}}
	w.cliTLS = &tls.Config{RootCAs: ca.Pool(), ServerName: h2Hosts[0], NextProtos: []string{"h2"}}
	return nil
}

func putRecord(dst []byte, i, status, bodyLen int) {
	rec := dst[i*recordSize : (i+1)*recordSize]
	rec[0] = byte(i % len(h2Hosts))
	binary.BigEndian.PutUint16(rec[1:], uint16(status))
	binary.BigEndian.PutUint32(rec[3:], uint32(bodyLen))
}

// reference stands in for the one-worker run the simulator workloads
// do: a full sequential pass would take longer than the iterations it
// vouches for, so one client replays the first five connections' worth
// of the plan, and the digest every iteration is held to is the one the
// plan itself implies (status 200 and the planned body length for every
// request).
func (w *h2Live) reference() (iterOut, error) {
	n := min(5*w.sz.H2Redial, w.sz.H2Requests)
	got := make([]byte, len(w.expect))
	failed, err := w.client(nil, noSpan, 0, n, got)
	w.servers.Wait()
	if err != nil {
		return iterOut{}, err
	}
	if failed != 0 || !bytes.Equal(got[:n*recordSize], w.expect[:n*recordSize]) {
		return iterOut{}, fmt.Errorf("h2-live: sequential reference pass: %d failed requests or unexpected responses", failed)
	}
	return iterOut{ops: n, artifacts: [][]byte{w.expect}}, nil
}

func (w *h2Live) iterate(tr *tracer, parent int32, workers int) (iterOut, error) {
	var out iterOut
	w.mu.Lock()
	w.counters = h2.ConnCounters{}
	w.mu.Unlock()
	if tr != nil && w.lat == nil {
		var err error
		if w.lat, err = newH2Latencies(); err != nil {
			return out, err
		}
	}

	got := make([]byte, len(w.expect))
	failed := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		lo, hi := k*w.sz.H2Requests/workers, (k+1)*w.sz.H2Requests/workers
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := tr.begin(parent, "h2.client")
			failed[k], errs[k] = w.client(tr, s, lo, hi, got)
			tr.end(s)
		}(k)
	}
	wg.Wait()
	w.servers.Wait() // every ServeConn has returned and reported its counters
	for k := range errs {
		if errs[k] != nil {
			return out, errs[k]
		}
		out.failed += failed[k]
	}
	w.mu.Lock()
	c := w.counters
	w.mu.Unlock()
	out.ops = w.sz.H2Requests
	out.artifacts = [][]byte{got}
	out.counters = map[string]float64{
		"h2.frames_per_req": float64(c.FramesRead+c.FramesWritten) / float64(max(c.StreamsOpened, 1)),
		"h2.misdirected":    float64(c.Misdirected),
	}
	return out, nil
}

// dial opens one client connection over an in-memory pipe; the server
// side runs until the client closes.
func (w *h2Live) dial() (*h2.ClientConn, error) {
	clientEnd, serverEnd := net.Pipe()
	w.servers.Add(1)
	go func() {
		defer w.servers.Done()
		// The error is the client's GOAWAY + close, the normal end of
		// every connection here.
		_ = w.srv.ServeConn(tls.Server(serverEnd, w.srvTLS))
	}()
	tc := tls.Client(clientEnd, w.cliTLS)
	if err := tc.Handshake(); err != nil {
		clientEnd.Close()
		return nil, fmt.Errorf("h2-live: TLS handshake: %w", err)
	}
	cc, err := h2.NewClientConn(tc, h2.ClientConnOptions{Origin: h2Hosts[0]})
	if err != nil {
		return nil, fmt.Errorf("h2-live: client preface: %w", err)
	}
	return cc, nil
}

// client issues plan requests [lo, hi) one at a time, a fresh connection
// every H2Redial requests, and writes one record per request into got.
// It returns how many requests broke an invariant.
func (w *h2Live) client(tr *tracer, parent int32, lo, hi int, got []byte) (failed int, err error) {
	lat := w.lat
	if tr == nil {
		lat = nil
	}
	for start := lo; start < hi; start += w.sz.H2Redial {
		n, err := w.connection(tr, parent, lat, start, min(start+w.sz.H2Redial, hi), got)
		failed += n
		if err != nil {
			return failed, err
		}
	}
	return failed, nil
}

// connection dials, checks what the connection is authoritative for, and
// issues plan requests [start, end) on it.
func (w *h2Live) connection(tr *tracer, parent int32, lat *h2Latencies, start, end int, got []byte) (failed int, err error) {
	s := tr.begin(parent, "h2.conn_setup")
	t0 := time.Now()
	cc, err := w.dial()
	if err != nil {
		return 0, err
	}
	defer cc.Close()
	t1 := time.Now()
	ok, err := w.get(cc, start, got)
	if err != nil {
		return 0, err
	}
	if !ok {
		failed++
	}
	if lat != nil {
		lat.add(&lat.setupNs, time.Since(t0))
		lat.add(&lat.shakeNs, t1.Sub(t0))
	}
	tr.end(s)

	// The ORIGIN frame preceded the first response, so by now the origin
	// set must admit every certificate host...
	for _, h := range h2Hosts {
		if !cc.CanRequest(h) {
			failed++
		}
	}
	// ...and an authority outside it must bounce with 421.
	if cc.CanRequest(h2OffSet) {
		failed++
	}
	resp, err := cc.Get(h2OffSet, "/small")
	if err != nil {
		return failed, fmt.Errorf("h2-live: off-set GET: %w", err)
	}
	if resp.Status != 421 {
		failed++
	}

	s = tr.begin(parent, "h2.requests")
	for i := start + 1; i < end; i++ {
		var t time.Time
		if lat != nil {
			t = time.Now()
		}
		ok, err := w.get(cc, i, got)
		if err != nil {
			return failed, err
		}
		if !ok {
			failed++
		}
		if lat != nil {
			if d := time.Since(t); w.isBulk[i] {
				lat.add(&lat.bulkNs, d)
			} else {
				lat.add(&lat.smallNs, d)
			}
		}
	}
	tr.end(s)
	if lat != nil {
		lat.mu.Lock()
		lat.originFrm += cc.OriginFramesSeen()
		lat.mu.Unlock()
	}
	return failed, nil
}

// get performs plan request i and records what came back; ok is false
// when the response is not the 200 + exact body the plan calls for.
func (w *h2Live) get(cc *h2.ClientConn, i int, got []byte) (ok bool, err error) {
	host := h2Hosts[i%len(h2Hosts)]
	path, want := "/small", w.small
	if w.isBulk[i] {
		path, want = "/bulk", w.bulk
	}
	resp, err := cc.Get(host, path)
	if err != nil {
		return false, fmt.Errorf("h2-live: GET https://%s%s (request %d): %w", host, path, i, err)
	}
	putRecord(got, i, resp.Status, len(resp.Body))
	return resp.Status == 200 && bytes.Equal(resp.Body, want), nil
}
