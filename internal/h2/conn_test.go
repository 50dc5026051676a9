package h2

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"respectorigin/internal/hpack"
)

// startPair wires a Server to a ClientConn over net.Pipe and returns the
// client plus a shutdown func.
func startPair(t *testing.T, srv *Server, opts ClientConnOptions) (*ClientConn, func()) {
	t.Helper()
	cn, sn := net.Pipe()
	serverDone := make(chan error, 1)
	go func() { serverDone <- srv.ServeConn(sn) }()
	cc, err := NewClientConn(cn, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cc, func() {
		cc.Close()
		select {
		case <-serverDone:
		case <-time.After(2 * time.Second):
			t.Error("server did not shut down")
		}
	}
}

func echoHandler() Handler {
	return HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeader(200,
			hpack.HeaderField{Name: "content-type", Value: "text/plain"},
			hpack.HeaderField{Name: "x-authority", Value: r.Authority},
		)
		fmt.Fprintf(w, "%s %s", r.Method, r.Path)
		if len(r.Body) > 0 {
			w.Write(r.Body)
		}
	})
}

func TestRoundTripBasic(t *testing.T) {
	cc, stop := startPair(t, &Server{Handler: echoHandler()}, ClientConnOptions{Origin: "example.com"})
	defer stop()

	resp, err := cc.Get("example.com", "/hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Errorf("status = %d", resp.Status)
	}
	if string(resp.Body) != "GET /hello" {
		t.Errorf("body = %q", resp.Body)
	}
	if resp.HeaderValue("content-type") != "text/plain" {
		t.Errorf("content-type = %q", resp.HeaderValue("content-type"))
	}
	if resp.HeaderValue("x-authority") != "example.com" {
		t.Errorf("x-authority = %q", resp.HeaderValue("x-authority"))
	}
}

// TestHandlerThatWritesNothingSends200: a handler that returns without
// writing gets the empty 200 response Close promises, HEADERS included.
func TestHandlerThatWritesNothingSends200(t *testing.T) {
	cc, stop := startPair(t, &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {})}, ClientConnOptions{})
	defer stop()
	resp, err := cc.Get("example.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || len(resp.Body) != 0 {
		t.Errorf("status %d with a %d-byte body, want 200 and none", resp.Status, len(resp.Body))
	}
}

// TestRoundTripWithBody echoes request bodies of one DATA frame and of
// many: 100 000 bytes cross the 16 384-byte frame size and the 65 535-byte
// initial window, so the server reassembles them from several frames.
func TestRoundTripWithBody(t *testing.T) {
	cc, stop := startPair(t, &Server{Handler: echoHandler()}, ClientConnOptions{})
	defer stop()

	for _, size := range []int{10000, 100000} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i % 251) // a misplaced frame shows
		}
		resp, err := cc.RoundTrip(&Request{
			Method: "POST", Scheme: "https", Authority: "example.com", Path: "/up",
			Body: body,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := "POST /up" + string(body)
		if string(resp.Body) != want {
			t.Errorf("%d-byte body: echoed %d bytes, want %d, or their order differs", size, len(resp.Body), len(want))
		}
	}
}

func TestLargeResponseCrossesFlowControlWindow(t *testing.T) {
	// 300 KiB response: forces multiple DATA frames, stream and
	// connection WINDOW_UPDATE exchanges.
	const size = 300 << 10
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.Write(bytes.Repeat([]byte{'z'}, size))
	})}
	cc, stop := startPair(t, srv, ClientConnOptions{})
	defer stop()

	resp, err := cc.Get("example.com", "/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) != size {
		t.Errorf("got %d bytes, want %d", len(resp.Body), size)
	}
}

func TestConcurrentStreams(t *testing.T) {
	cc, stop := startPair(t, &Server{Handler: echoHandler()}, ClientConnOptions{})
	defer stop()

	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/req/%d", i)
			resp, err := cc.Get("example.com", path)
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Body) != "GET "+path {
				errs <- fmt.Errorf("bad body %q for %s", resp.Body, path)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLargeHeadersUseContinuation(t *testing.T) {
	// A >16KiB header block must be split into HEADERS+CONTINUATION.
	big := strings.Repeat("v", 40000)
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeader(200, hpack.HeaderField{Name: "x-big", Value: r.HeaderValue("x-big")})
	})}
	cc, stop := startPair(t, srv, ClientConnOptions{})
	defer stop()

	resp, err := cc.RoundTrip(&Request{
		Method: "GET", Scheme: "https", Authority: "example.com", Path: "/",
		Header: []hpack.HeaderField{{Name: "x-big", Value: big, Sensitive: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.HeaderValue("x-big") != big {
		t.Errorf("x-big lost: got %d bytes", len(resp.HeaderValue("x-big")))
	}
}

func TestOriginFrameDelivered(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	srv := &Server{
		Handler:   echoHandler(),
		OriginSet: []string{"shard1.example.com", "shard2.example.com"},
	}
	cc, stop := startPair(t, srv, ClientConnOptions{
		Origin: "www.example.com",
		OnOrigin: func(origins []string) {
			mu.Lock()
			seen = append(seen, origins...)
			mu.Unlock()
		},
	})
	defer stop()

	// Any round trip guarantees the ORIGIN frame (sent before the first
	// response) has been processed.
	if _, err := cc.Get("www.example.com", "/"); err != nil {
		t.Fatal(err)
	}
	if cc.OriginFramesSeen() != 1 {
		t.Fatalf("origin frames seen = %d", cc.OriginFramesSeen())
	}
	os := cc.OriginSet()
	for _, want := range []string{"www.example.com", "shard1.example.com", "shard2.example.com"} {
		if !os.contains(want) {
			t.Errorf("origin set missing %s (have %v)", want, os.All())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Errorf("OnOrigin saw %v", seen)
	}
}

func TestCanRequestUsesOriginSetAndSANCheck(t *testing.T) {
	srv := &Server{
		Handler:   echoHandler(),
		OriginSet: []string{"covered.example.com", "uncovered.example.com"},
	}
	certSANs := map[string]bool{
		"www.example.com":     true,
		"covered.example.com": true,
	}
	cc, stop := startPair(t, srv, ClientConnOptions{
		Origin:       "www.example.com",
		VerifyOrigin: func(host string) bool { return certSANs[host] },
	})
	defer stop()

	if _, err := cc.Get("www.example.com", "/"); err != nil {
		t.Fatal(err)
	}
	if !cc.CanRequest("covered.example.com") {
		t.Error("in origin set + SAN: should be requestable")
	}
	if cc.CanRequest("uncovered.example.com") {
		t.Error("in origin set but not in SAN: must not be requestable")
	}
	if cc.CanRequest("unrelated.example.com") {
		t.Error("not in origin set: must not be requestable")
	}
}

func TestMisdirectedRequestGets421(t *testing.T) {
	srv := &Server{
		Handler:       echoHandler(),
		Authoritative: func(authority string) bool { return authority == "served.example.com" },
	}
	cc, stop := startPair(t, srv, ClientConnOptions{})
	defer stop()

	resp, err := cc.Get("served.example.com", "/")
	if err != nil || resp.Status != 200 {
		t.Fatalf("authoritative request: %v %v", resp, err)
	}
	resp, err = cc.Get("other.example.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 421 {
		t.Errorf("status = %d, want 421 Misdirected Request", resp.Status)
	}
}

func TestUnknownExtensionFrameIgnoredEndToEnd(t *testing.T) {
	// RFC 9113 §4.1: implementations must ignore unknown frame types.
	srv := &Server{Handler: echoHandler()}
	cn, sn := net.Pipe()
	go srv.ServeConn(sn)
	cc, err := NewClientConn(cn, ClientConnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	if err := cc.fr.writeFrame(FrameType(0xee), 0, 0, []byte("mystery")); err != nil {
		t.Fatal(err)
	}
	resp, err := cc.Get("example.com", "/after-unknown")
	if err != nil || resp.Status != 200 {
		t.Fatalf("request after unknown frame: %v %v", resp, err)
	}
}

// nonCompliantClient models the §6.7 anti-virus middlebox that tears
// down the TLS connection when it sees an unknown frame type instead of
// ignoring it.
func TestNonCompliantPeerTearsDownOnOrigin(t *testing.T) {
	srv := &Server{
		Handler:   echoHandler(),
		OriginSet: []string{"shard.example.com"},
	}
	cn, sn := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.ServeConn(sn) }()

	// Hand-rolled client: preface, SETTINGS, then read frames and kill
	// the connection on any unknown type (ORIGIN, for this client).
	if _, err := io.WriteString(cn, clientPreface); err != nil {
		t.Fatal(err)
	}
	fr := NewFramer(cn, cn)
	if err := fr.writeSettings(); err != nil {
		t.Fatal(err)
	}
	sawOrigin := false
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("reading: %v", err)
		}
		if f.header().Type == frameOrigin {
			sawOrigin = true
			cn.Close() // the non-compliant teardown
			break
		}
		if _, ok := f.(*settingsFrame); ok {
			continue
		}
	}
	if !sawOrigin {
		t.Fatal("never saw ORIGIN frame")
	}
	select {
	case err := <-serverErr:
		// The server observes an unexpected connection loss, exactly
		// what the CDN saw as "an increased number of failed
		// connections" in §6.7.
		if err == nil {
			t.Error("expected connection failure, got clean shutdown")
		}
	case <-time.After(2 * time.Second):
		t.Error("server did not notice teardown")
	}
}

// TestRefusedStreamOverConcurrencyLimit: a peer that opens a stream past
// the server's SETTINGS_MAX_CONCURRENT_STREAMS gets REFUSED_STREAM for it
// (RFC 9113 §5.1.2). ClientConn never sends one, so the peer here is
// raw frames.
func TestRefusedStreamOverConcurrencyLimit(t *testing.T) {
	release := make(chan struct{})
	srv := &Server{
		MaxConcurrentStreams: 2,
		Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
			<-release
			w.WriteHeader(200)
		}),
	}
	cn, sn := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.ServeConn(sn) }()
	defer func() {
		close(release)
		cn.Close()
		<-serverErr
	}()

	io.WriteString(cn, clientPreface)
	fr := NewFramer(cn, cn)
	resets := make(chan [2]uint32, 3)
	go func() {
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			if rst, ok := f.(*rstStreamFrame); ok {
				resets <- [2]uint32{rst.StreamID, uint32(rst.ErrCode)}
			}
		}
	}()
	fr.writeSettings()
	enc := hpack.NewEncoder()
	// Streams 1 and 3 occupy both slots; 5 is one too many.
	for _, id := range []uint32{1, 3, 5} {
		block := enc.AppendHeaderBlock(nil, []hpack.HeaderField{
			{Name: ":method", Value: "GET"}, {Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: "example.com"}, {Name: ":path", Value: "/slow"},
		})
		fr.writeHeadersFrame(headersFrameParam{StreamID: id, BlockFragment: block, EndStream: true, EndHeaders: true})
	}
	select {
	case rst := <-resets:
		if rst != [2]uint32{5, uint32(errCodeRefusedStream)} {
			t.Errorf("RST_STREAM on stream %d with %v, want stream 5 REFUSED_STREAM", rst[0], ErrCode(rst[1]))
		}
	case <-time.After(2 * time.Second):
		t.Error("the third stream was not refused")
	}
}

// TestClientHonoursMaxConcurrentStreams: while the server's one stream
// slot is held, a request fails with errStreamLimit and sends no HEADERS
// (RFC 9113 §5.1.2).
func TestClientHonoursMaxConcurrentStreams(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	counters := make(chan ConnCounters, 1)
	srv := &Server{
		MaxConcurrentStreams: 1,
		Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
			close(held)
			<-release
			w.WriteHeader(200)
		}),
		CountersFor: func(c ConnCounters) { counters <- c },
	}
	cc, stop := startPair(t, srv, ClientConnOptions{})
	// The ack of a PING comes after the server's SETTINGS, so once it is
	// in, the read loop has taken the limit.
	if err := cc.pingTimeout([8]byte{1}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	heldErr := make(chan error, 1)
	go func() {
		_, err := cc.Get("example.com", "/held")
		heldErr <- err
	}()
	<-held
	if _, err := cc.Get("example.com", "/over"); !errors.Is(err, errStreamLimit) {
		t.Errorf("request past the limit: err = %v, want errStreamLimit", err)
	}
	close(release)
	if err := <-heldErr; err != nil {
		t.Fatal(err)
	}
	stop()
	if c := <-counters; c.StreamsOpened != 1 {
		t.Errorf("the server saw %d streams, want 1: the request past the limit sent HEADERS", c.StreamsOpened)
	}
}

// The server frees a stream's slot before it queues the frame that ends
// the response. A client that honours SETTINGS_MAX_CONCURRENT_STREAMS
// opens its next stream as soon as it reads that frame, so a slot freed
// after it refuses some of a sequential run of requests; the race shows
// under -race with 4 Ps.
func TestSequentialRequestsAtStreamLimit(t *testing.T) {
	srv := &Server{
		MaxConcurrentStreams: 1,
		Handler:              HandlerFunc(func(w *ResponseWriter, r *Request) { w.WriteHeader(200) }),
	}
	cc, stop := startPair(t, srv, ClientConnOptions{})
	defer stop()
	refused := 0
	for i := 0; i < 5000; i++ {
		if _, err := cc.Get("example.com", "/"); err != nil {
			var se streamErr
			if !errors.As(err, &se) || se.Code != errCodeRefusedStream {
				t.Fatalf("request %d: %v", i, err)
			}
			refused++
		}
	}
	if refused > 0 {
		t.Errorf("%d of 5000 sequential requests refused at MaxConcurrentStreams 1", refused)
	}
}

// goroutineID is the calling goroutine's ID, from the first line of its
// stack ("goroutine 42 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// parkedWorkers counts the goroutines running serverConn.worker.
func parkedWorkers() int {
	n := 0
	for _, g := range leakedH2Goroutines() {
		if strings.Contains(g, "(*serverConn).worker") {
			n++
		}
	}
	return n
}

// TestHandlerGoroutinesAreReused: a connection runs sequential requests'
// handlers on one goroutine, keeps at most maxIdleWorkers parked after a
// burst of concurrent streams and none once the client has closed, and
// still asks Authoritative from one goroutine at a time.
func TestHandlerGoroutinesAreReused(t *testing.T) {
	var (
		mu       sync.Mutex
		ids      = map[string]int{}
		inBurst  sync.WaitGroup
		release  = make(chan struct{})
		asking   atomic.Int32
		overlaps atomic.Int32
	)
	const burstSize = 64
	inBurst.Add(burstSize)
	srv := &Server{
		Authoritative: func(string) bool {
			if asking.Add(1) > 1 {
				overlaps.Add(1)
			}
			runtime.Gosched() // widen the window a second call could overlap
			asking.Add(-1)
			return true
		},
		Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
			if r.Path == "/burst" {
				inBurst.Done()
				<-release
				return
			}
			mu.Lock()
			ids[goroutineID()]++
			mu.Unlock()
		}),
	}
	cc, stop := startPair(t, srv, ClientConnOptions{})
	for i := 0; i < 200; i++ {
		if _, err := cc.Get("example.com", "/"); err != nil {
			t.Fatal(err)
		}
	}
	if len(ids) != 1 {
		t.Errorf("200 sequential GETs ran their handlers on %d goroutines, want 1: %v", len(ids), ids)
	}

	var burst sync.WaitGroup
	for i := 0; i < burstSize; i++ {
		burst.Add(1)
		go func() {
			defer burst.Done()
			if _, err := cc.Get("example.com", "/burst"); err != nil {
				t.Error(err)
			}
		}()
	}
	inBurst.Wait() // every handler of the burst is running at once
	close(release)
	burst.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for parkedWorkers() > maxIdleWorkers {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers stay after a burst of %d streams, want at most %d", parkedWorkers(), burstSize, maxIdleWorkers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	stop()
	assertNoH2Goroutines(t)
	if n := overlaps.Load(); n > 0 {
		t.Errorf("Authoritative was called %d times while another call ran", n)
	}
}

func TestServerCounters(t *testing.T) {
	got := make(chan ConnCounters, 1)
	srv := &Server{
		Handler:     echoHandler(),
		OriginSet:   []string{"x.example.com"},
		CountersFor: func(c ConnCounters) { got <- c },
	}
	cc, stop := startPair(t, srv, ClientConnOptions{})
	cc.Get("example.com", "/1")
	cc.Get("example.com", "/2")
	stop()
	c := <-got
	if c.StreamsOpened != 2 {
		t.Errorf("streams opened = %d", c.StreamsOpened)
	}
}

func TestClientRejectsServerPush(t *testing.T) {
	// A server violating our ENABLE_PUSH=0 must trigger a connection error.
	cn, remote := net.Pipe()
	go func() {
		// Hand-rolled misbehaving server.
		io.ReadFull(remote, make([]byte, len(clientPreface)))
		rfr := NewFramer(remote, remote)
		rfr.writeSettings()
		rfr.writeFrame(framePushPromise, flagEndHeaders, 1, []byte{0, 0, 0, 2})
		io.Copy(io.Discard, remote) // drain client frames until it closes
	}()
	cc, err := NewClientConn(cn, ClientConnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for cc.err() == nil {
		select {
		case <-deadline:
			t.Fatal("client never errored on PUSH_PROMISE")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if ce, ok := cc.err().(connectionError); !ok || ce.Code != errCodeProtocol {
		t.Errorf("err = %v", cc.err())
	}
}

// TestKeptRequestsAndResponsesOutliveLaterBlocks: each connection
// decodes every header block into one reused field slice, so what a
// handler or caller is handed must not alias it. A handler keeps every
// *Request, the client keeps every *Response, and after 160 requests
// with differing literal headers (some never-indexed, every tenth split
// into CONTINUATIONs both ways) each kept value still reads as it did
// when it was handed over. Every fifth response body is about 70 000
// bytes, distinct per request: several frames across the 65 535-byte
// window, which the client stages in pooled storage that later bodies
// reuse, so a Response.Body must not alias that either.
func TestKeptRequestsAndResponsesOutliveLaterBlocks(t *testing.T) {
	type keptRequest struct {
		r    *Request
		snap Request
	}
	var (
		mu   sync.Mutex
		reqs []keptRequest
	)
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		mu.Lock()
		reqs = append(reqs, keptRequest{r, cloneRequest(r)})
		mu.Unlock()
		fields := []hpack.HeaderField{
			{Name: "x-echo-seq", Value: r.HeaderValue("x-seq")},
			{Name: "x-path", Value: r.Path},
		}
		if big := r.HeaderValue("x-big"); big != "" {
			fields = append(fields, hpack.HeaderField{Name: "x-big", Value: big})
		}
		w.WriteHeader(200, fields...)
		if seq, _ := strconv.Atoi(r.HeaderValue("x-seq")); seq%5 == 0 {
			w.Write(bytes.Repeat([]byte(r.Path+"#"), 70000/(len(r.Path)+1)))
			return
		}
		fmt.Fprintf(w, "body of %s", r.Path)
	})}
	cc, stop := startPair(t, srv, ClientConnOptions{})
	defer stop()

	type keptResponse struct {
		r    *Response
		snap Response
	}
	var resps []keptResponse
	for i := 0; i < 160; i++ {
		req := &Request{
			Method: "GET", Scheme: "https", Authority: "example.com", Path: fmt.Sprintf("/r/%d", i),
			Header: []hpack.HeaderField{
				{Name: "x-seq", Value: fmt.Sprint(i)},
				{Name: "x-tag", Value: fmt.Sprintf("tag-%d", i*7), Sensitive: i%3 == 0},
			},
		}
		if i%10 == 0 {
			req.Header = append(req.Header, hpack.HeaderField{Name: "x-big", Value: strings.Repeat(string(rune('a'+i%26)), 20000)})
		}
		if i%4 == 0 {
			req.Method, req.Body = "POST", []byte(req.Path)
		}
		resp, err := cc.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.HeaderValue("x-echo-seq"); got != fmt.Sprint(i) {
			t.Fatalf("request %d: x-echo-seq %q", i, got)
		}
		snap := *resp
		snap.Header = slices.Clone(resp.Header)
		snap.Body = slices.Clone(resp.Body)
		resps = append(resps, keptResponse{resp, snap})
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reqs) != len(resps) {
		t.Fatalf("handler kept %d requests, client %d responses", len(reqs), len(resps))
	}
	for i, k := range reqs {
		if !reflect.DeepEqual(*k.r, k.snap) {
			t.Errorf("kept request %d changed after later requests: %+v, was %+v", i, k.r.Header, k.snap.Header)
		}
	}
	for i, k := range resps {
		if !reflect.DeepEqual(*k.r, k.snap) {
			t.Errorf("kept response %d changed after later requests: %+v, was %+v", i, k.r.Header, k.snap.Header)
		}
	}
}

func cloneRequest(r *Request) Request {
	c := *r
	c.Header = slices.Clone(r.Header)
	c.Body = slices.Clone(r.Body)
	return c
}

// err returns the fatal connection error, if any.
func (cc *ClientConn) err() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.connErr
}
