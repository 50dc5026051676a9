package h2

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"respectorigin/internal/hpack"
)

// TestContinuationFloodCutOff: a peer streaming endless CONTINUATION
// frames must be cut off with ENHANCE_YOUR_CALM rather than buffering
// without bound.
func TestContinuationFloodCutOff(t *testing.T) {
	srv := &Server{Handler: echoHandler()}
	cn, sn := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.ServeConn(sn) }()

	if _, err := io.WriteString(cn, clientPreface); err != nil {
		t.Fatal(err)
	}
	fr := NewFramer(cn, cn)
	if err := fr.writeSettings(); err != nil {
		t.Fatal(err)
	}
	// Open a header block and never finish it.
	enc := hpack.NewEncoder()
	frag := enc.AppendHeaderBlock(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"}, {Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/"},
	})
	if err := fr.writeHeadersFrame(headersFrameParam{StreamID: 1, BlockFragment: frag}); err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0x00}, 16000) // literal fragments, never END_HEADERS
	go func() {
		for i := 0; i < 200; i++ {
			if err := fr.writeContinuation(1, false, junk); err != nil {
				return
			}
		}
	}()
	select {
	case err := <-serverErr:
		ce, ok := err.(connectionError)
		if !ok || ce.Code != errCodeEnhanceYourCalm {
			t.Errorf("server exit = %v, want ENHANCE_YOUR_CALM", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("server kept buffering the flood")
	}
	cn.Close()
}

// TestOversizedSingleHeadersFrame: one huge HEADERS fragment is also
// bounded (the server's MaxFrameSize must admit it first).
func TestOversizedSingleHeadersFrame(t *testing.T) {
	srv := &Server{Handler: echoHandler(), MaxFrameSize: 1 << 21}
	cn, sn := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.ServeConn(sn) }()

	io.WriteString(cn, clientPreface)
	fr := NewFramer(cn, cn)
	fr.writeSettings()
	go io.Copy(io.Discard, cn)
	big := bytes.Repeat([]byte{0}, (1<<20)+1)
	if err := fr.writeHeadersFrame(headersFrameParam{StreamID: 1, BlockFragment: big, EndHeaders: true}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serverErr:
		ce, ok := err.(connectionError)
		if !ok || ce.Code != errCodeEnhanceYourCalm {
			t.Errorf("server exit = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("server accepted oversized block")
	}
	cn.Close()
}

// TestInitialWindowSizeChangeMidStream: shrinking then growing
// SETTINGS_INITIAL_WINDOW_SIZE adjusts in-flight stream windows
// (RFC 9113 §6.9.2) without deadlocking the transfer.
func TestInitialWindowSizeChangeMidStream(t *testing.T) {
	release := make(chan struct{})
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.Write(bytes.Repeat([]byte{'a'}, 40000))
		<-release
		w.Write(bytes.Repeat([]byte{'b'}, 40000))
	})}
	cn, sn := net.Pipe()
	go srv.ServeConn(sn)
	cc, err := NewClientConn(cn, ClientConnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	respCh := make(chan *Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := cc.Get("example.com", "/big")
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	// Mid-transfer, lower and then raise the server's send window.
	time.Sleep(20 * time.Millisecond)
	if err := cc.fr.writeSettings(Setting{settingInitialWindowSize, 1024}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := cc.fr.writeSettings(Setting{settingInitialWindowSize, 1 << 20}); err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case resp := <-respCh:
		if len(resp.Body) != 80000 {
			t.Errorf("body = %d bytes", len(resp.Body))
		}
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("transfer stalled after window changes")
	}
}

// TestFlowControlStallAndResume: a tiny client connection window must
// stall the server until WINDOW_UPDATEs arrive, and the transfer must
// still complete.
func TestFlowControlStallAndResume(t *testing.T) {
	const size = 200_000
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.Write(bytes.Repeat([]byte{'z'}, size))
	})}
	cc, stop := startPair(t, srv, ClientConnOptions{})
	defer stop()
	resp, err := cc.Get("example.com", "/stall")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) != size {
		t.Errorf("got %d bytes", len(resp.Body))
	}
}

// TestHugeHeaderValueRejectedGracefully: a header just under the block
// limit round-trips; the request still succeeds.
func TestHeaderNearLimitSucceeds(t *testing.T) {
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeader(200, hpack.HeaderField{Name: "x-len", Value: itoa(len(r.HeaderValue("x-big")))})
	})}
	cc, stop := startPair(t, srv, ClientConnOptions{})
	defer stop()
	val := strings.Repeat("v", 200_000)
	resp, err := cc.RoundTrip(&Request{
		Method: "GET", Scheme: "https", Authority: "example.com", Path: "/",
		Header: []hpack.HeaderField{{Name: "x-big", Value: val, Sensitive: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.HeaderValue("x-len") != itoa(len(val)) {
		t.Errorf("x-len = %s", resp.HeaderValue("x-len"))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestMalformedRequestsRejected exercises the §8.3 pseudo-header rules
// end to end.
func TestMalformedRequestsRejected(t *testing.T) {
	srv := &Server{Handler: echoHandler()}
	cn, sn := net.Pipe()
	go srv.ServeConn(sn)

	io.WriteString(cn, clientPreface)
	fr := NewFramer(cn, cn)
	fr.writeSettings()
	enc := hpack.NewEncoder()

	// Uppercase header name: connection is torn down with a
	// compression/protocol error signalled via GOAWAY or RST.
	frag := enc.AppendHeaderBlock(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET"}, {Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/"}, {Name: "BadHeader", Value: "x"},
	})
	fr.writeHeadersFrame(headersFrameParam{StreamID: 1, BlockFragment: frag, EndStream: true, EndHeaders: true})

	sawReset := false
	deadline := time.After(2 * time.Second)
	done := make(chan bool, 1)
	go func() {
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				done <- sawReset
				return
			}
			switch f.(type) {
			case *rstStreamFrame, *goAwayFrame:
				sawReset = true
				done <- true
				return
			}
		}
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Error("malformed request not rejected")
		}
	case <-deadline:
		t.Error("no rejection observed")
	}
	cn.Close()
}

// TestStreamIDMonotonicityEnforced: reusing a lower stream ID is a
// connection error.
func TestStreamIDMonotonicityEnforced(t *testing.T) {
	srv := &Server{Handler: echoHandler()}
	cn, sn := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.ServeConn(sn) }()

	io.WriteString(cn, clientPreface)
	fr := NewFramer(cn, cn)
	fr.writeSettings()
	go io.Copy(io.Discard, cn)
	enc := hpack.NewEncoder()
	mk := func() []byte {
		return enc.AppendHeaderBlock(nil, []hpack.HeaderField{
			{Name: ":method", Value: "GET"}, {Name: ":scheme", Value: "https"}, {Name: ":path", Value: "/"},
		})
	}
	fr.writeHeadersFrame(headersFrameParam{StreamID: 5, BlockFragment: mk(), EndStream: true, EndHeaders: true})
	fr.writeHeadersFrame(headersFrameParam{StreamID: 3, BlockFragment: mk(), EndStream: true, EndHeaders: true})
	select {
	case err := <-serverErr:
		ce, ok := err.(connectionError)
		if !ok || ce.Code != errCodeProtocol {
			t.Errorf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("non-monotonic stream ID accepted")
	}
	cn.Close()
}

// TestHeaderReaderDropsOutsizedFieldStorage: a block of many tiny
// fields (4 000 one-byte indexed fields, well inside the block-size cap)
// must not pin its field slice to the connection, neither through the
// reader's storage nor through its meta frame, from the moment it is
// handed over; and a smaller block leaves no field of the block before
// it in the storage past its own.
func TestHeaderReaderDropsOutsizedFieldStorage(t *testing.T) {
	hr := &headerReader{dec: hpack.NewDecoder()}
	block := func(n int) *HeadersFrame {
		return &HeadersFrame{
			FrameHeader:   FrameHeader{Type: frameHeaders, Flags: flagEndHeaders, StreamID: 1},
			BlockFragment: bytes.Repeat([]byte{0x82}, n), // :method GET
		}
	}
	kept := func(when string) {
		t.Helper()
		if c := cap(hr.fields); c > keptFields {
			t.Errorf("%s: header reader keeps room for %d fields, want ≤ %d", when, c, keptFields)
		}
		if c := cap(hr.meta.Fields); c > keptFields {
			t.Errorf("%s: header reader's meta frame holds room for %d fields, want ≤ %d", when, c, keptFields)
		}
		for i, f := range hr.fields[len(hr.fields):cap(hr.fields)] {
			if f != (hpack.HeaderField{}) {
				t.Errorf("%s: slot %d past the block still holds %+v", when, len(hr.fields)+i, f)
				break
			}
		}
	}
	for _, n := range []int{10, 3} {
		if meta, err := hr.onHeaders(block(n)); err != nil || len(meta.Fields) != n {
			t.Fatalf("%d-field block: %v", n, err)
		}
	}
	kept("after a 3-field block that follows a 10-field one")
	meta, err := hr.onHeaders(block(4000))
	if err != nil || len(meta.Fields) != 4000 {
		t.Fatalf("outsized block: %v, %d fields", err, len(meta.Fields))
	}
	kept("right after the outsized block")
	if meta == &hr.meta {
		t.Error("the outsized block is handed over in the reader's own meta frame")
	}
	meta, err = hr.onHeaders(block(3))
	if err != nil || len(meta.Fields) != 3 {
		t.Fatalf("next block: %v, %d fields", err, len(meta.Fields))
	}
	kept("after a 3-field block")
}

// TestSelfDependentPriorityResetsStream: RFC 9113 §5.3.1 makes a stream
// that depends on itself a stream error of type PROTOCOL_ERROR. A
// PRIORITY frame and a HEADERS frame that each name their own stream as
// the dependency get an RST_STREAM with PROTOCOL_ERROR, and the
// connection goes on serving the next stream.
func TestSelfDependentPriorityResetsStream(t *testing.T) {
	srv := &Server{Handler: echoHandler()}
	cn, sn := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.ServeConn(sn) }()
	defer func() {
		cn.Close()
		<-serverErr
	}()

	io.WriteString(cn, clientPreface)
	fr := NewFramer(cn, cn)
	frames := make(chan Frame)
	go func() {
		defer close(frames)
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			switch f := f.(type) {
			case *rstStreamFrame:
				frames <- &rstStreamFrame{FrameHeader: f.FrameHeader, ErrCode: f.ErrCode}
			case *goAwayFrame:
				frames <- &goAwayFrame{FrameHeader: f.FrameHeader, ErrCode: f.ErrCode}
			case *dataFrame:
				if f.Flags.has(flagEndStream) {
					frames <- &dataFrame{FrameHeader: f.FrameHeader}
				}
			}
		}
	}()
	fr.writeSettings()
	enc := hpack.NewEncoder()
	get := func() []byte {
		return enc.AppendHeaderBlock(nil, []hpack.HeaderField{
			{Name: ":method", Value: "GET"}, {Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: "example.com"}, {Name: ":path", Value: "/"},
		})
	}
	fr.writeFrame(framePriority, 0, 1, []byte{0, 0, 0, 1, 15})
	fr.writeHeadersFrame(headersFrameParam{StreamID: 3, BlockFragment: get(), EndStream: true, EndHeaders: true,
		Priority: &PriorityParam{StreamDep: 3, Weight: 15}})
	fr.writeHeadersFrame(headersFrameParam{StreamID: 5, BlockFragment: get(), EndStream: true, EndHeaders: true})

	reset := map[uint32]ErrCode{}
	timeout := time.After(2 * time.Second)
	for {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("connection closed before stream 5 was served")
			}
			switch f := f.(type) {
			case *rstStreamFrame:
				reset[f.StreamID] = f.ErrCode
			case *goAwayFrame:
				t.Fatalf("GOAWAY %v: a self-dependent stream must reset only itself", f.ErrCode)
			case *dataFrame:
				if f.StreamID != 5 {
					t.Fatalf("stream %d answered", f.StreamID)
				}
				for _, id := range []uint32{1, 3} {
					if code, ok := reset[id]; !ok || code != errCodeProtocol {
						t.Errorf("stream %d: RST_STREAM %v (sent: %v), want PROTOCOL_ERROR", id, code, ok)
					}
				}
				return
			}
		case <-timeout:
			t.Fatalf("stream 5 not served; resets so far %v", reset)
		}
	}
}
