package h2

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"respectorigin/internal/hpack"
)

// wireTap records every byte one end writes to its transport.
type wireTap struct {
	net.Conn
	mu    sync.Mutex
	wrote bytes.Buffer
}

func (c *wireTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.wrote.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// frameTally counts frames by type and, for WINDOW_UPDATE, by whether
// they credit the connection (stream 0) or a stream.
type frameTally map[string]int

// tallyFrames parses wire, a preface-free sequence of whole frames, and
// tallies them.
func tallyFrames(t *testing.T, wire []byte) frameTally {
	t.Helper()
	fr := NewFramer(io.Discard, bytes.NewReader(wire))
	fr.setMaxReadFrameSize(maxMaxFrameSize)
	tally := frameTally{}
	for {
		f, err := fr.ReadFrame()
		if err == io.EOF {
			return tally
		}
		if err != nil {
			t.Fatalf("parsing what an endpoint wrote: %v", err)
		}
		name := f.header().Type.String()
		if f.header().Type == frameWindowUpdate && f.header().StreamID == 0 {
			name += "(conn)"
		}
		tally[name]++
	}
}

// TestFramesPerWarmGet pins the frames each endpoint writes over one
// connection that carries gets sequential 512-byte GETs, so a change to
// the send loop or to the WINDOW_UPDATE rule shows here frame by frame.
// Per GET the server writes HEADERS, one DATA and an empty END_STREAM
// DATA; the client writes HEADERS and a stream WINDOW_UPDATE, and a
// connection WINDOW_UPDATE each time half its 65 535-byte receive window
// (32 767 bytes) has been consumed — every 64th GET at 512 bytes, so
// 5 + 1/64 ≈ 5.016 frames a GET in all. Set-up is one SETTINGS and one
// SETTINGS ack a side; the client's Close adds a GOAWAY.
func TestFramesPerWarmGet(t *testing.T) {
	const gets, bodyLen = 200, 512
	body := bytes.Repeat([]byte("origin"), bodyLen/6+1)[:bodyLen]
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeader(200)
		w.Write(body)
	})}
	cn, sn := net.Pipe()
	ct, st := &wireTap{Conn: cn}, &wireTap{Conn: sn}
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(st) }()
	cc, err := NewClientConn(ct, ClientConnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gets; i++ {
		resp, err := cc.Get("example.com", fmt.Sprintf("/%d", i%4))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Body) != bodyLen {
			t.Fatalf("GET %d: %d body bytes, want %d", i, len(resp.Body), bodyLen)
		}
	}
	cc.Close()
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatal("server did not shut down")
	}

	clientWire := ct.wrote.Bytes()
	if !bytes.HasPrefix(clientWire, []byte(clientPreface)) {
		t.Fatal("the client did not open with the connection preface")
	}
	connUpdates := gets * bodyLen / (initialWindowSize / 2) // 32 767 bytes a connection WINDOW_UPDATE
	for _, side := range []struct {
		name string
		wire []byte
		want frameTally
	}{
		{"client", clientWire[len(clientPreface):], frameTally{
			"SETTINGS": 2, "HEADERS": gets, "WINDOW_UPDATE": gets, "WINDOW_UPDATE(conn)": connUpdates, "GOAWAY": 1,
		}},
		{"server", st.wrote.Bytes(), frameTally{
			"SETTINGS": 2, "HEADERS": gets, "DATA": 2 * gets,
		}},
	} {
		if got := tallyFrames(t, side.wire); fmt.Sprint(got) != fmt.Sprint(side.want) {
			t.Errorf("the %s wrote %v over %d GETs, want %v", side.name, got, gets, side.want)
		}
	}
}

// TestEndStreamDataEarnsNoStreamCredit: a DATA frame that carries
// END_STREAM gets no stream WINDOW_UPDATE, since its sender has closed
// that stream, while its bytes still count toward the connection's. The
// server advertises a 64 KiB frame limit, so a 40 000-byte request body
// goes in one frame with END_STREAM and spends more than half the
// server's 65 535-byte connection window: one connection WINDOW_UPDATE
// and no stream one. A GET first makes sure the client has applied the
// server's SETTINGS before it sends the body.
func TestEndStreamDataEarnsNoStreamCredit(t *testing.T) {
	srv := &Server{MaxFrameSize: 1 << 16, Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {})}
	cn, sn := net.Pipe()
	ct, st := &wireTap{Conn: cn}, &wireTap{Conn: sn}
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(st) }()
	cc, err := NewClientConn(ct, ClientConnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Get("example.com", "/"); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.RoundTrip(&Request{Method: "POST", Scheme: "https", Path: "/", Body: make([]byte, 40000)}); err != nil {
		t.Fatal(err)
	}
	cc.Close()
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatal("server did not shut down")
	}
	for _, side := range []struct {
		name string
		wire []byte
		want frameTally
	}{
		{"client", ct.wrote.Bytes()[len(clientPreface):], frameTally{"SETTINGS": 2, "HEADERS": 2, "DATA": 1, "GOAWAY": 1}},
		{"server", st.wrote.Bytes(), frameTally{"SETTINGS": 2, "HEADERS": 2, "DATA": 2, "WINDOW_UPDATE(conn)": 1}},
	} {
		if got := tallyFrames(t, side.wire); fmt.Sprint(got) != fmt.Sprint(side.want) {
			t.Errorf("the %s wrote %v, want %v", side.name, got, side.want)
		}
	}
}

// TestServerCountersMatchTheWire holds ConnCounters to what crossed the
// connection: FramesWritten to every frame the server wrote, ORIGIN,
// HEADERS, DATA and acks alike; FramesRead and BytesRead to every frame
// and byte the client wrote after its preface.
func TestServerCountersMatchTheWire(t *testing.T) {
	got := make(chan ConnCounters, 1)
	srv := &Server{
		Handler:       echoHandler(),
		OriginSet:     []string{"x.example.com"},
		Authoritative: func(host string) bool { return host != "elsewhere.example" },
		CountersFor:   func(c ConnCounters) { got <- c },
	}
	cn, sn := net.Pipe()
	ct, st := &wireTap{Conn: cn}, &wireTap{Conn: sn}
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(st) }()
	cc, err := NewClientConn(ct, ClientConnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"example.com", "elsewhere.example", "example.com"} {
		if _, err := cc.Get(host, "/"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cc.RoundTrip(&Request{Method: "POST", Scheme: "https", Path: "/", Body: make([]byte, 40000)}); err != nil {
		t.Fatal(err)
	}
	if err := cc.pingTimeout([8]byte{7}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	cc.Close()
	<-served
	c := <-got

	count := func(tally frameTally) (n int) {
		for _, k := range tally {
			n += k
		}
		return n
	}
	read := ct.wrote.Bytes()[len(clientPreface):]
	if want := count(tallyFrames(t, st.wrote.Bytes())); c.FramesWritten != want {
		t.Errorf("FramesWritten = %d, the server wrote %d frames", c.FramesWritten, want)
	}
	if want := count(tallyFrames(t, read)); c.FramesRead != want {
		t.Errorf("FramesRead = %d, the client wrote %d frames", c.FramesRead, want)
	}
	if c.BytesRead != int64(len(read)) {
		t.Errorf("BytesRead = %d, the client wrote %d bytes after its preface", c.BytesRead, len(read))
	}
	if c.StreamsOpened != 4 || c.Misdirected != 1 {
		t.Errorf("StreamsOpened %d, Misdirected %d; want 4 and 1", c.StreamsOpened, c.Misdirected)
	}
}

// openServer serves a Server on one end of a pipe and returns a raw
// peer on the other that has sent the preface, then peerSettings: see
// greet. The server answers stream 1 with body.
func openServer(t *testing.T, body []byte, peerSettings ...Setting) *Framer {
	cn, sn := net.Pipe()
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) { w.Write(body) })}
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(sn) }()
	t.Cleanup(func() {
		cn.Close()
		<-served
	})
	cn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(cn, clientPreface); err != nil {
		t.Fatal(err)
	}
	peer := greet(t, cn, peerSettings)
	block := hpack.NewEncoder().AppendHeaderBlock(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"}, {Name: ":scheme", Value: "https"}, {Name: ":path", Value: "/"},
	})
	if err := peer.writeHeadersFrame(headersFrameParam{StreamID: 1, BlockFragment: block, EndStream: true, EndHeaders: true}); err != nil {
		t.Fatal(err)
	}
	return peer
}

// dialClient dials a ClientConn over a pipe and returns it with a raw
// peer on the other end that has read the preface and sent
// peerSettings: see greet.
func dialClient(t *testing.T, peerSettings ...Setting) (*ClientConn, *Framer) {
	cn, pn := net.Pipe()
	pn.SetDeadline(time.Now().Add(5 * time.Second))
	dialed := make(chan *ClientConn, 1)
	go func() {
		cc, err := NewClientConn(cn, ClientConnOptions{})
		if err != nil {
			t.Error(err)
		}
		dialed <- cc
	}()
	if _, err := io.ReadFull(pn, make([]byte, len(clientPreface))); err != nil {
		t.Fatal(err)
	}
	cc := <-dialed
	if cc == nil {
		t.FailNow()
	}
	t.Cleanup(func() {
		// Read to EOF, as a live peer does, however long the test took.
		pn.SetReadDeadline(time.Now().Add(5 * time.Second))
		go io.Copy(io.Discard, pn)
		cc.Close()
		pn.Close()
	})
	return cc, greet(t, pn, peerSettings)
}

// openClient is dialClient, after which the client sends a request with
// body on stream 1.
func openClient(t *testing.T, body []byte, peerSettings ...Setting) *Framer {
	cc, peer := dialClient(t, peerSettings...)
	go cc.RoundTrip(&Request{Method: "POST", Scheme: "https", Path: "/", Body: body})
	return peer
}

// greet gives the endpoint on the far side of c a 1 MiB connection and
// stream window and the peer's SETTINGS, and waits for its ack.
func greet(t *testing.T, c net.Conn, settings []Setting) *Framer {
	t.Helper()
	peer := NewFramer(c, c)
	peer.setMaxReadFrameSize(maxMaxFrameSize)
	// The window first: the endpoint reads frames in order, so the ack
	// of the SETTINGS says it has applied both.
	if err := peer.writeWindowUpdate(0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := peer.writeSettings(append(settings, Setting{settingInitialWindowSize, 1 << 20})...); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := peer.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if sf, ok := f.(*settingsFrame); ok && sf.isAck() {
			return peer
		}
	}
}

// nextOnStream1 returns the next frame the endpoint writes on stream 1.
func nextOnStream1(t *testing.T, peer *Framer) Frame {
	t.Helper()
	for {
		f, err := peer.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.header().StreamID == 1 {
			return f
		}
	}
}

// TestEndpointsApplyPeerSettings: the client and the server take a
// peer's SETTINGS_MAX_FRAME_SIZE as the size of the DATA frames they
// send, and a SETTINGS_HEADER_TABLE_SIZE as a dynamic table size update
// at the start of their next header block (RFC 7541 §4.2).
func TestEndpointsApplyPeerSettings(t *testing.T) {
	const bodyLen = 1 << 16
	for _, ep := range []struct {
		name string
		open func(t *testing.T, body []byte, peerSettings ...Setting) *Framer
	}{{"client", openClient}, {"server", openServer}} {
		for _, tc := range []struct {
			maxFrame uint32 // 0: not sent, so 16 384
			frames   int
		}{{0, 4}, {32768, 2}} {
			t.Run(fmt.Sprintf("%s/max_frame_size_%d", ep.name, tc.maxFrame), func(t *testing.T) {
				var settings []Setting
				if tc.maxFrame != 0 {
					settings = append(settings, Setting{settingMaxFrameSize, tc.maxFrame})
				}
				peer := ep.open(t, make([]byte, bodyLen), settings...)
				var sizes []int
				for sent := 0; sent < bodyLen; {
					if d, ok := nextOnStream1(t, peer).(*dataFrame); ok && len(d.Data) > 0 {
						sizes = append(sizes, len(d.Data))
						sent += len(d.Data)
					}
				}
				if len(sizes) != tc.frames {
					t.Errorf("a %d-byte body went in DATA frames of %v bytes, want %d frames", bodyLen, sizes, tc.frames)
				}
			})
		}
		for _, zeroTable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/header_table_size_0_sent_%v", ep.name, zeroTable), func(t *testing.T) {
				var settings []Setting
				if zeroTable {
					settings = append(settings, Setting{settingHeaderTableSize, 0})
				}
				h, ok := nextOnStream1(t, ep.open(t, nil, settings...)).(*HeadersFrame)
				if !ok || len(h.BlockFragment) == 0 {
					t.Fatal("the first frame on stream 1 is not a header block")
				}
				// 001xxxxx is a dynamic table size update; 0x20 updates to 0.
				if updated := h.BlockFragment[0] == 0x20; updated != zeroTable {
					t.Errorf("the header block opens with %#x; a size update to 0 was due: %v", h.BlockFragment[0], zeroTable)
				}
			})
		}
	}
}

// TestEndpointsRejectStrayContinuation: a CONTINUATION that follows no
// open header block is a connection error of type PROTOCOL_ERROR (RFC
// 9113 §6.10). The client and the server each answer it with GOAWAY and
// close the transport.
func TestEndpointsRejectStrayContinuation(t *testing.T) {
	for _, ep := range []struct {
		name string
		open func(t *testing.T, body []byte, peerSettings ...Setting) *Framer
	}{{"client", openClient}, {"server", openServer}} {
		t.Run(ep.name, func(t *testing.T) {
			peer := ep.open(t, nil)
			// Let stream 1 end first (the client's request, the server's
			// response), so no frame of it can follow the GOAWAY.
			for !nextOnStream1(t, peer).header().Flags.has(flagEndStream) {
			}
			// 0x82 is an indexed ":method: GET", a well-formed fragment.
			if err := peer.writeContinuation(1, true, []byte{0x82}); err != nil {
				t.Fatal(err)
			}
			for {
				f, err := peer.ReadFrame()
				if err != nil {
					t.Fatalf("the transport ended in %v before a GOAWAY", err)
				}
				if g, ok := f.(*goAwayFrame); ok {
					if g.ErrCode != errCodeProtocol {
						t.Errorf("GOAWAY %v, want PROTOCOL_ERROR", g.ErrCode)
					}
					break
				}
			}
			if _, err := peer.ReadFrame(); err != io.EOF {
				t.Errorf("after the GOAWAY the peer read %v, want EOF", err)
			}
		})
	}
}

// TestEndpointsReadLoopContract pins what the read loop does on either
// side with the frames that belong to no request or response: it
// answers a PING with an ack of the same payload; ignores PRIORITY and a
// frame of an unknown type (RFC 9113 §5.5); answers a stream error, here
// a WINDOW_UPDATE of increment 0 (§6.9), with RST_STREAM and reads on;
// and answers PUSH_PROMISE, which neither side may receive with push
// disabled, with GOAWAY(PROTOCOL_ERROR) and closes the transport.
func TestEndpointsReadLoopContract(t *testing.T) {
	for _, ep := range []struct {
		name string
		open func(t *testing.T, body []byte, peerSettings ...Setting) *Framer
	}{{"client", openClient}, {"server", openServer}} {
		t.Run(ep.name, func(t *testing.T) {
			peer := ep.open(t, nil)
			// Let stream 1 end first, so every frame read below answers one
			// the peer wrote.
			for !nextOnStream1(t, peer).header().Flags.has(flagEndStream) {
			}
			next := func() Frame {
				t.Helper()
				f, err := peer.ReadFrame()
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			ping := func(data [8]byte) {
				t.Helper()
				if err := peer.writePing(false, data); err != nil {
					t.Fatal(err)
				}
				if p, ok := next().(*pingFrame); !ok || !p.isAck() || p.Data != data {
					t.Fatalf("a PING %q was not answered by its ack first", data[:])
				}
			}

			if err := peer.writeFrame(framePriority, 0, 1, []byte{0, 0, 0, 0, 15}); err != nil {
				t.Fatal(err)
			}
			if err := peer.writeFrame(0xfa, 0, 0, []byte("extension")); err != nil {
				t.Fatal(err)
			}
			ping([8]byte{'c', 'o', 'n', 't', 'r', 'a', 'c', 't'})

			if err := peer.writeFrame(frameWindowUpdate, 0, 1, []byte{0, 0, 0, 0}); err != nil {
				t.Fatal(err)
			}
			if r, ok := next().(*rstStreamFrame); !ok || r.StreamID != 1 || r.ErrCode != errCodeProtocol {
				t.Fatal("a zero-increment WINDOW_UPDATE on stream 1 was not answered by RST_STREAM(1, PROTOCOL_ERROR)")
			}
			ping([8]byte{'s', 'e', 'r', 'v', 'i', 'n', 'g'})

			if err := peer.writeFrame(framePushPromise, flagEndHeaders, 1, []byte{0, 0, 0, 2}); err != nil {
				t.Fatal(err)
			}
			if g, ok := next().(*goAwayFrame); !ok || g.ErrCode != errCodeProtocol {
				t.Fatal("a PUSH_PROMISE was not answered by GOAWAY(PROTOCOL_ERROR)")
			}
			if _, err := peer.ReadFrame(); err != io.EOF {
				t.Errorf("after the GOAWAY the peer read %v, want EOF", err)
			}
		})
	}
}

// TestClientRejectsDataBeforeResponseHeaders: a response opens with its
// HEADERS, so DATA on a stream whose response HEADERS have not come is a
// stream error of type PROTOCOL_ERROR (RFC 9113 §8.1). The client resets
// the stream, its Get returns the error, and the connection serves the
// next request.
func TestClientRejectsDataBeforeResponseHeaders(t *testing.T) {
	cc, peer := dialClient(t)
	got := make(chan error, 1)
	go func() {
		_, err := cc.Get("example.com", "/")
		got <- err
	}()
	nextOnStream1(t, peer) // the request's HEADERS
	if err := peer.WriteData(1, true, []byte("no headers")); err != nil {
		t.Fatal(err)
	}
	if r, ok := nextOnStream1(t, peer).(*rstStreamFrame); !ok || r.ErrCode != errCodeProtocol {
		t.Error("DATA before the response HEADERS was not answered by RST_STREAM(PROTOCOL_ERROR)")
	}
	err := <-got
	if se, ok := err.(streamErr); !ok || se.Code != errCodeProtocol {
		t.Errorf("Get returned %v, want a PROTOCOL_ERROR stream error", err)
	}

	type result struct {
		resp *Response
		err  error
	}
	next := make(chan result, 1)
	go func() {
		resp, err := cc.Get("example.com", "/next")
		next <- result{resp, err}
	}()
	for {
		f, err := peer.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f.(*HeadersFrame); ok && f.header().StreamID == 3 {
			break
		}
	}
	block := hpack.NewEncoder().AppendHeaderBlock(nil, []hpack.HeaderField{{Name: ":status", Value: "200"}})
	if err := peer.writeHeadersFrame(headersFrameParam{StreamID: 3, BlockFragment: block, EndHeaders: true}); err != nil {
		t.Fatal(err)
	}
	if err := peer.WriteData(3, true, []byte("served")); err != nil {
		t.Fatal(err)
	}
	if r := <-next; r.err != nil || r.resp.Status != 200 || string(r.resp.Body) != "served" {
		t.Fatalf("the next GET: %+v, %v", r.resp, r.err)
	}
}

// TestCloseBoundsItsFlush: Close gives its GOAWAY closeLinger to reach
// the peer and no more, so a peer that has stopped reading cannot wedge
// it.
func TestCloseBoundsItsFlush(t *testing.T) {
	cc, _ := dialClient(t) // the peer reads nothing after the SETTINGS ack
	closed := make(chan struct{})
	go func() {
		cc.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * closeLinger):
		t.Fatalf("Close still blocked after %v on a peer that reads nothing", 5*closeLinger)
	}
}
