package h2

import (
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
	"time"
)

func TestClientPing(t *testing.T) {
	cc, stop := startPair(t, &Server{Handler: echoHandler()}, ClientConnOptions{})
	defer stop()
	var data [8]byte
	copy(data[:], "ping0001")
	done := make(chan error, 1)
	go func() { done <- cc.pingTimeout(data, 2*time.Second) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ping never acked")
	}
}

func TestClientPingDuplicateRejected(t *testing.T) {
	// Two concurrent pings with the same payload: the second must error
	// rather than silently sharing the ack.
	cc, stop := startPair(t, &Server{Handler: echoHandler()}, ClientConnOptions{})
	defer stop()
	var data [8]byte
	cc.pingMu.Lock()
	cc.pingWait[data] = make(chan struct{})
	cc.pingMu.Unlock()
	if err := cc.pingTimeout(data, time.Second); err == nil {
		t.Error("duplicate ping accepted")
	}
}

// TestClientIgnoresAltSvc: an ALTSVC frame (RFC 7838) is an extension
// this client does not implement, so it must be ignored (RFC 9113 §5.5):
// the connection stays up and answers the PING that follows it.
func TestClientIgnoresAltSvc(t *testing.T) {
	cn, remote := net.Pipe()
	acked := make(chan bool, 1)
	go func() {
		defer remote.Close()
		if _, err := io.ReadFull(remote, make([]byte, len(clientPreface))); err != nil {
			acked <- false
			return
		}
		fr := NewFramer(remote, remote)
		fr.writeSettings()
		altSvc := append([]byte{0x00, 0x0b}, `example.comh3=":443"; ma=3600`...)
		fr.writeFrame(0xa, 0, 0, altSvc)
		fr.writePing(false, [8]byte{'a', 'f', 't', 'e', 'r'})
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				acked <- false
				return
			}
			if p, ok := f.(*pingFrame); ok && p.isAck() {
				acked <- true
				return
			}
		}
	}()
	cc, err := NewClientConn(cn, ClientConnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	select {
	case ok := <-acked:
		if !ok {
			t.Fatalf("connection failed after ALTSVC: %v", cc.err())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PING after ALTSVC never acked")
	}
}

// TestParserNeverPanics feeds random frame payloads through the parser;
// any outcome but a panic is acceptable.
func TestParserNeverPanics(t *testing.T) {
	f := func(typ uint8, flags uint8, stream uint32, payload []byte) bool {
		if len(payload) > minMaxFrameSize {
			payload = payload[:minMaxFrameSize]
		}
		hdr := FrameHeader{
			Type:     FrameType(typ),
			Flags:    Flags(flags),
			StreamID: stream & (1<<31 - 1),
			Length:   uint32(len(payload)),
		}
		_, _ = parseFrame(new(frameCache), hdr, payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParserNeverPanicsOnMutatedValidFrames mutates real frames.
func TestParserNeverPanicsOnMutatedValidFrames(t *testing.T) {
	w, r, buf := pipeFramer()
	w.writeSettings(Setting{settingMaxFrameSize, 65536})
	w.writeOrigin([]string{"https://a.example", "https://b.example"})
	w.writeHeadersFrame(headersFrameParam{StreamID: 1, BlockFragment: []byte{0x82, 0x84}, EndHeaders: true})
	w.WriteData(1, true, []byte("payload"))
	w.writeGoAway(1, errCodeNo, []byte("bye"))
	raw := append([]byte(nil), buf.Bytes()...)

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		mutated := append([]byte(nil), raw...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
		}
		fr := NewFramer(io.Discard, newByteReader(mutated))
		for {
			if _, err := fr.ReadFrame(); err != nil {
				break
			}
		}
	}
	_ = r
}

type byteReader struct {
	b []byte
}

func newByteReader(b []byte) *byteReader { return &byteReader{b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}
