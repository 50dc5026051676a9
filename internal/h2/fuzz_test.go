package h2

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"respectorigin/internal/hpack"
)

// rawFrame serializes a 9-octet frame header plus payload, bypassing all
// Framer write-side validation — the fuzzer's job is to hit the parser
// with frames a conforming peer would never send.
func rawFrame(typ uint8, flags uint8, streamID uint32, payload []byte) []byte {
	buf := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	buf[0] = byte(len(payload) >> 16)
	buf[1] = byte(len(payload) >> 8)
	buf[2] = byte(len(payload))
	buf[3] = typ
	buf[4] = flags
	binary.BigEndian.PutUint32(buf[5:], streamID&(1<<31-1))
	return append(buf, payload...)
}

// FuzzFrameParse feeds arbitrary bytes to Framer.ReadFrame. Any input
// must produce frames or a clean error — never a panic or a hung parse.
func FuzzFrameParse(f *testing.F) {
	f.Add([]byte{})
	f.Add(rawFrame(uint8(frameData), uint8(flagEndStream), 1, []byte("hello")))
	f.Add(rawFrame(uint8(frameData), uint8(flagPadded), 1, []byte{0x10, 'x'})) // pad length past payload
	f.Add(rawFrame(uint8(frameSettings), 0, 0, make([]byte, 6)))
	f.Add(rawFrame(uint8(frameWindowUpdate), 0, 0, []byte{0, 0, 0, 0})) // zero increment
	f.Add(rawFrame(uint8(frameGoAway), 0, 0, make([]byte, 8)))
	f.Add(rawFrame(uint8(framePing), 0, 0, make([]byte, 8)))
	f.Add(rawFrame(uint8(frameOrigin), 0, 0, []byte{0x00, 0x05, 'h', 't', 't', 'p', 's'}))
	f.Add(rawFrame(0xa, 0, 0, []byte{0x00, 0x00, 'h', '3'})) // ALTSVC: read as unknown
	f.Add(rawFrame(0xfe, 0xff, 1<<31-1, []byte("unknown type")))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFramer(io.Discard, bytes.NewReader(data))
		for i := 0; i < 1024; i++ {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			_ = f.header().String()
		}
	})
}

// FuzzFrameRoundTrip builds a syntactically well-formed frame from
// fuzzer-chosen parts and checks that the parser either rejects it or
// reports exactly the header that was on the wire.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(frameData), uint8(0), uint32(1), []byte("body"))
	f.Add(uint8(frameHeaders), uint8(flagEndHeaders), uint32(3), []byte{0x82})
	f.Add(uint8(frameRSTStream), uint8(0), uint32(5), []byte{0, 0, 0, 1})
	f.Add(uint8(frameWindowUpdate), uint8(0), uint32(0), []byte{0, 0, 1, 0})
	f.Add(uint8(0xc), uint8(0), uint32(0), []byte{0x00, 0x01, 'a'})
	f.Add(uint8(0x42), uint8(0x99), uint32(1<<31-1), []byte("opaque"))
	f.Fuzz(func(t *testing.T, typ uint8, flags uint8, streamID uint32, payload []byte) {
		if len(payload) > minMaxFrameSize {
			t.Skip("oversize payloads are covered by FuzzFrameParse")
		}
		wire := rawFrame(typ, flags, streamID, payload)
		fr := NewFramer(io.Discard, bytes.NewReader(wire))
		parsed, err := fr.ReadFrame()
		if err != nil {
			return
		}
		hdr := parsed.header()
		if hdr.Type != FrameType(typ) {
			t.Fatalf("parsed type %v, wire had %#x", hdr.Type, typ)
		}
		if hdr.StreamID != streamID&(1<<31-1) {
			t.Fatalf("parsed stream %d, wire had %d", hdr.StreamID, streamID&(1<<31-1))
		}
		if hdr.Length != uint32(len(payload)) {
			t.Fatalf("parsed length %d, wire had %d", hdr.Length, len(payload))
		}
	})
}

// FuzzSettingsDecode checks that every SETTINGS payload the parser
// accepts re-serializes to the identical bytes — decoding loses nothing,
// including unknown setting IDs, which RFC 9113 §6.5.2 requires an
// endpoint to ignore but a proxy to be able to forward.
func FuzzSettingsDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x04, 0x00, 0x01, 0x00, 0x00})             // INITIAL_WINDOW_SIZE 65536
	f.Add([]byte{0x00, 0x04, 0x80, 0x00, 0x00, 0x00})             // INITIAL_WINDOW_SIZE 2^31: invalid
	f.Add([]byte{0x00, 0x05, 0x00, 0x00, 0x00, 0x01})             // MAX_FRAME_SIZE below 16384: invalid
	f.Add([]byte{0x00, 0x02, 0x00, 0x00, 0x00, 0x02})             // ENABLE_PUSH 2: invalid
	f.Add([]byte{0xff, 0xff, 0x12, 0x34, 0x56, 0x78})             // unknown ID survives
	f.Add([]byte{0x00, 0x03, 0x00, 0x00, 0x00, 0x64, 0x00, 0x06}) // trailing partial record
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr := FrameHeader{Type: frameSettings, Length: uint32(len(data))}
		parsed, err := parseSettingsFrame(new(frameCache), hdr, data)
		if err != nil {
			return
		}
		sf := parsed.(*settingsFrame)
		var buf bytes.Buffer
		if err := NewFramer(&buf, nil).writeSettings(sf.Settings...); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if got := buf.Bytes()[frameHeaderLen:]; !bytes.Equal(got, data) {
			t.Fatalf("re-serialized payload %x, want %x", got, data)
		}
	})
}

// FuzzOriginPayload feeds an ORIGIN frame payload (RFC 8336 §2) to
// parseOriginFrame and what it yields to OriginSet.Replace. A length
// prefix that overruns the payload is a FRAME_SIZE_ERROR, never a panic
// or a short read; decoding allocates within a multiple of the payload;
// accepted entries re-serialize to the identical bytes; and whatever
// the set keeps of them — empty, non-ASCII and non-https entries are
// skipped, not fatal — is in canonical form: canonicalizing it again
// changes nothing, and the set contains it.
func FuzzOriginPayload(f *testing.F) {
	entry := func(origins ...string) []byte {
		var p []byte
		for _, o := range origins {
			p = binary.BigEndian.AppendUint16(p, uint16(len(o)))
			p = append(p, o...)
		}
		return p
	}
	valid := entry("https://example.com", "https://cdn.example.com:8443", "Example.ORG")
	f.Add(valid)
	for _, cut := range []int{0, 1, 2, 3, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(entry("", "https://", "http://example.com", "https://exämple.com", "https://[2001:db8::1]:443", "https://a.example/path"))
	f.Add([]byte{0xff, 0xff, 'a'}) // 65 535 octets declared, one delivered

	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parsed, err := parseOriginFrame(new(frameCache), FrameHeader{Type: frameOrigin, Length: uint32(len(payload))}, payload)
		set := newOriginSet()
		if err == nil {
			set.replace(parsed.(*originFrame).Origins)
		}
		runtime.ReadMemStats(&after)
		// Worst honest ratio: a two-byte empty entry is a 16-byte string
		// header, in a slice grown by doubling; the fuzzing harness itself
		// allocates a few KiB in the background.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(payload)+64<<10); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(payload), grew, bound)
		}
		if err != nil {
			return
		}
		origins := parsed.(*originFrame).Origins
		var buf bytes.Buffer
		if err := NewFramer(&buf, nil).writeOrigin(origins); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if got := buf.Bytes()[frameHeaderLen:]; !bytes.Equal(got, payload) {
			t.Fatalf("re-serialized payload %x, want %x", got, payload)
		}
		if set.len() > len(origins) {
			t.Fatalf("%d entries made a set of %d", len(origins), set.len())
		}
		for _, o := range set.All() {
			if c, err := canonicalOrigin(o); err != nil || c != o {
				t.Fatalf("set member %q canonicalizes to %q, %v", o, c, err)
			}
			if !set.contains(o) || !strings.HasPrefix(o, "https://") || originHost(o) == "" {
				t.Fatalf("set member %q: contained %v, host %q", o, set.contains(o), originHost(o))
			}
		}
	})
}

// bodyPattern is what FuzzBodyReassembly cuts bodies from, each stream
// at an offset of its own so that no two bodies read alike.
var bodyPattern = func() []byte {
	p := make([]byte, 1<<16+1<<14)
	for i := range p {
		p[i] = byte(i*31 + i>>8)
	}
	return p
}()

// FuzzBodyReassembly drives a ClientConn from a raw-frame peer: two
// interleaved streams, each body cut into DATA frames of fuzzer-chosen
// sizes, empty and padded frames among them. Each plan byte is one
// frame: bit 0 picks the stream, bit 1 pads it, and the other six bits n
// carry 4n² payload bytes (0 to 15 876). Every handed-over body must
// equal the concatenation of its payloads, and must still equal it after
// the other stream and a later request complete, by which time the
// pooled storage that staged it has been reused.
func FuzzBodyReassembly(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{0x3c, 0x3d}, false)                              // one small frame each, then empty END_STREAM frames
	f.Add([]byte{0x10, 0xfc, 0x13, 0xfd, 0x02, 0x03}, false)      // small first frames outgrown; padded and empty frames
	f.Add([]byte{0xfc, 0xfd, 0xfc, 0xfd, 0xfc, 0xfd, 0xfc}, true) // full frames, END_STREAM on the last payload
	f.Add(bytes.Repeat([]byte{0xfc, 0xfd}, 70), true)             // each body past the pool's largest class
	f.Fuzz(func(t *testing.T, plan []byte, endOnData bool) {
		if len(plan) > 160 { // room for both bodies to pass 1 MiB
			plan = plan[:160]
		}
		cn, remote := net.Pipe()
		defer remote.Close()
		opened := make(chan uint32, 3) // one per request
		// The peer's reader drains the client and reports each request.
		go func() {
			if _, err := io.ReadFull(remote, make([]byte, len(clientPreface))); err != nil {
				return
			}
			rfr := NewFramer(io.Discard, remote)
			for {
				fr, err := rfr.ReadFrame()
				if err != nil {
					return
				}
				if h, ok := fr.(*HeadersFrame); ok {
					opened <- h.StreamID
				}
			}
		}()
		cc, err := NewClientConn(cn, ClientConnOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()
		pfr := NewFramer(remote, nil)
		enc := hpack.NewEncoder()
		respond := func(id uint32) { // the peer's writer: answers once the request is read
			select {
			case got := <-opened:
				if got != id {
					t.Fatalf("request opened stream %d, want %d", got, id)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("stream %d never opened", id)
			}
			block := enc.AppendHeaderBlock(nil, []hpack.HeaderField{{Name: ":status", Value: "200"}})
			if err := pfr.writeHeadersFrame(headersFrameParam{StreamID: id, BlockFragment: block, EndHeaders: true}); err != nil {
				t.Fatal(err)
			}
		}
		type result struct {
			resp *Response
			err  error
		}
		results := make(chan result, 3) // one per request
		get := func() {
			r, err := cc.Get("body.example", "/")
			results <- result{r, err}
		}
		got := func() *Response {
			select {
			case r := <-results:
				if r.err != nil {
					t.Fatal(r.err)
				}
				return r.resp
			case <-time.After(5 * time.Second):
				t.Fatal("no response")
				return nil
			}
		}
		want := map[uint32][]byte{}
		payload := func(id uint32, n int) []byte {
			start := (len(want[id]) + int(id)*4099) % (1 << 16)
			p := bodyPattern[start : start+n]
			want[id] = append(want[id], p...)
			return p
		}

		go get()
		respond(1)
		go get()
		respond(3)
		last := map[uint32]int{}
		for i, b := range plan {
			last[uint32(1+2*(b&1))] = i
		}
		for i, b := range plan {
			id, n := uint32(1+2*(b&1)), int(b>>2)
			p := payload(id, 4*n*n)
			var flags Flags
			if endOnData && last[id] == i {
				flags |= flagEndStream
			}
			if b&2 != 0 {
				flags |= flagPadded
				pad := n % 8
				p = append(append([]byte{byte(pad)}, p...), make([]byte, pad)...)
			}
			if err := pfr.writeFrame(frameData, flags, id, p); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []uint32{1, 3} {
			if _, sent := last[id]; !endOnData || !sent {
				if err := pfr.WriteData(id, true, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		kept := []*Response{got(), got()}
		for _, r := range kept {
			if !bytes.Equal(r.Body, want[r.StreamID]) {
				t.Fatalf("stream %d: body of %d bytes, want the %d sent", r.StreamID, len(r.Body), len(want[r.StreamID]))
			}
		}

		go get()
		respond(5)
		for i := 0; i < 3; i++ {
			if err := pfr.WriteData(5, i == 2, payload(5, 15000)); err != nil {
				t.Fatal(err)
			}
		}
		if r := got(); !bytes.Equal(r.Body, want[5]) {
			t.Fatalf("later stream: body of %d bytes, want the %d sent", len(r.Body), len(want[5]))
		}
		for _, r := range kept {
			if !bytes.Equal(r.Body, want[r.StreamID]) {
				t.Fatalf("stream %d's body changed after later streams completed", r.StreamID)
			}
		}
	})
}

// fz encodes one frame of a FuzzEndpointFrames input: a type, a flags
// and a stream ID byte, a length byte n, then n payload bytes.
func fz(typ FrameType, flags Flags, stream uint8, payload []byte) []byte {
	return append([]byte{byte(typ), byte(flags), stream, byte(len(payload))}, payload...)
}

// endpointFrames decodes a FuzzEndpointFrames input into the wire bytes
// of at most 64 frames, which no write-side check has seen: a payload
// may be shorter than the input says where the input ends.
func endpointFrames(data []byte) []byte {
	var wire []byte
	for i := 0; i < 64 && len(data) >= 4; i++ {
		n := min(int(data[3]), len(data)-4)
		wire = append(wire, rawFrame(data[0], data[1], uint32(data[2]), data[4:4+n])...)
		data = data[4+n:]
	}
	return wire
}

// FuzzEndpointFrames feeds one fuzzer-chosen frame sequence to a Server
// and to a ClientConn with two requests open, each over net.Pipe. Either
// endpoint may answer with RST_STREAM or GOAWAY or close; it fails the
// target by panicking or by hanging: a server that has not returned, or
// a client whose read loop and requests have not ended, five seconds
// after the peer closed the pipe.
func FuzzEndpointFrames(f *testing.F) {
	get := []byte{0x82, 0x87, 0x84}       // :method GET, :scheme https, :path /
	status200 := []byte{0x88}             // :status 200
	block := bytes.Repeat([]byte{0}, 255) // literal fragments that never end
	flood := [][]byte{fz(frameHeaders, 0, 1, get)}
	for i := 0; i < 40; i++ {
		flood = append(flood, fz(frameContinuation, 0, 1, block))
	}
	seq := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	for _, seed := range [][]byte{
		seq(fz(frameSettings, 0, 0, nil), fz(frameHeaders, flagEndHeaders|flagEndStream, 1, get)),
		seq(fz(frameHeaders, flagEndHeaders, 1, status200), fz(frameData, flagEndStream, 1, []byte("body"))),
		seq(flood...), // a CONTINUATION flood's shape; TestContinuationFloodCutOff reaches the cut-off
		seq(fz(frameWindowUpdate, 0, 0, []byte{0, 0, 0, 0}), fz(frameWindowUpdate, 0, 1, []byte{0, 0, 0, 0})),
		seq(fz(framePushPromise, flagEndHeaders, 1, []byte{0, 0, 0, 2})), // PUSH_PROMISE to a client
		seq(fz(framePriority, 0, 1, []byte{0, 0, 0, 1, 15})),             // self-dependent PRIORITY
		seq(fz(frameHeaders, flagEndHeaders|flagEndStream, 2, get)),      // even stream ID
		seq(fz(frameSettings, 0, 0, []byte{0, 4, 0, 0, 0, 0}), fz(frameHeaders, flagEndHeaders, 1, get),
			fz(frameData, flagEndStream, 1, []byte("x")), fz(framePing, 0, 0, make([]byte, 8)),
			fz(frameRSTStream, 0, 3, []byte{0, 0, 0, 8}), fz(frameGoAway, 0, 0, make([]byte, 8))),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wire := endpointFrames(data)
		fuzzServer(t, wire)
		fuzzClient(t, wire)
	})
}

// fuzzServer writes the client preface and wire to a Server.
func fuzzServer(t *testing.T, wire []byte) {
	cn, sn := net.Pipe()
	cn.SetDeadline(time.Now().Add(5 * time.Second))
	srv := &Server{Handler: echoHandler(), ReadTimeout: time.Second, WriteTimeout: time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeConn(sn)
		sn.Close()
	}()
	go io.Copy(io.Discard, cn)
	if _, err := io.WriteString(cn, clientPreface); err == nil {
		cn.Write(wire)
	}
	cn.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatalf("the server hung on %x", wire)
	}
}

// fuzzClient dials a ClientConn, opens streams 1 and 3, and writes wire
// to it as the server.
func fuzzClient(t *testing.T, wire []byte) {
	cn, pn := net.Pipe()
	pn.SetDeadline(time.Now().Add(5 * time.Second))
	go io.Copy(io.Discard, pn)
	cc, err := NewClientConn(cn, ClientConnOptions{ReadTimeout: time.Second, WriteTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var open []*clientStream
	for i := 0; i < 2; i++ {
		if cs, err := cc.startRequest(&Request{Method: "GET", Scheme: "https", Authority: "fuzz.example", Path: "/"}); err == nil {
			open = append(open, cs)
		}
	}
	pn.Write(wire)
	pn.Close()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		<-cc.readerDone
		for _, cs := range open {
			cs.done.Wait()
		}
		cc.Close()
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatalf("the client hung on %x", wire)
	}
}
