package h2

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

// pipeFramer returns a framer pair: frames written on w are read on r.
func pipeFramer() (w *Framer, r *Framer, buf *bytes.Buffer) {
	buf = &bytes.Buffer{}
	w = NewFramer(buf, bytes.NewReader(nil))
	r = NewFramer(io.Discard, buf)
	return
}

func TestFrameHeaderRoundTrip(t *testing.T) {
	f := func(length uint32, typ, flags uint8, stream uint32) bool {
		h := FrameHeader{
			Length:   length & (1<<24 - 1),
			Type:     FrameType(typ),
			Flags:    Flags(flags),
			StreamID: stream & (1<<31 - 1),
		}
		enc := appendFrameHeader(nil, h)
		got, err := readFrameHeader(bytes.NewReader(enc), make([]byte, frameHeaderLen))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	w, r, _ := pipeFramer()
	if err := w.WriteData(5, true, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	df, ok := f.(*dataFrame)
	if !ok {
		t.Fatalf("got %T", f)
	}
	if df.StreamID != 5 || !df.Flags.has(flagEndStream) || string(df.Data) != "hello" {
		t.Errorf("frame = %+v", df)
	}
}

func TestDataOnStreamZeroRejected(t *testing.T) {
	w, r, _ := pipeFramer()
	w.AllowIllegalWrites = true
	if err := w.WriteData(0, false, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, err := r.ReadFrame()
	ce, ok := err.(connectionError)
	if !ok || ce.Code != errCodeProtocol {
		t.Errorf("want protocol ConnectionError, got %v", err)
	}
}

func TestSettingsRoundTrip(t *testing.T) {
	w, r, _ := pipeFramer()
	in := []Setting{
		{settingHeaderTableSize, 8192},
		{settingMaxFrameSize, 65536},
		{settingEnablePush, 0},
	}
	if err := w.writeSettings(in...); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	sf := f.(*settingsFrame)
	if !reflect.DeepEqual(sf.Settings, in) {
		t.Errorf("settings = %v, want %v", sf.Settings, in)
	}
	if v, ok := sf.value(settingMaxFrameSize); !ok || v != 65536 {
		t.Errorf("Value(MAX_FRAME_SIZE) = %d, %v", v, ok)
	}
	if err := w.writeSettingsAck(); err != nil {
		t.Fatal(err)
	}
	f, err = r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !f.(*settingsFrame).isAck() {
		t.Error("expected SETTINGS ack")
	}
}

func TestSettingsValidation(t *testing.T) {
	w, r, _ := pipeFramer()
	// ENABLE_PUSH=2 is invalid.
	if err := w.writeSettings(Setting{settingEnablePush, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrame(); err == nil {
		t.Error("invalid ENABLE_PUSH accepted")
	}
}

func TestPingGoAwayWindowUpdate(t *testing.T) {
	w, r, _ := pipeFramer()
	var data [8]byte
	copy(data[:], "12345678")
	if err := w.writePing(false, data); err != nil {
		t.Fatal(err)
	}
	if err := w.writeGoAway(7, errCodeEnhanceYourCalm, []byte("slow down")); err != nil {
		t.Fatal(err)
	}
	if err := w.writeWindowUpdate(3, 1000); err != nil {
		t.Fatal(err)
	}

	f, _ := r.ReadFrame()
	pf := f.(*pingFrame)
	if pf.Data != data || pf.isAck() {
		t.Errorf("ping = %+v", pf)
	}
	f, _ = r.ReadFrame()
	gf := f.(*goAwayFrame)
	if gf.LastStreamID != 7 || gf.ErrCode != errCodeEnhanceYourCalm || string(gf.DebugData) != "slow down" {
		t.Errorf("goaway = %+v", gf)
	}
	f, _ = r.ReadFrame()
	wf := f.(*windowUpdateFrame)
	if wf.StreamID != 3 || wf.Increment != 1000 {
		t.Errorf("window update = %+v", wf)
	}
}

func TestZeroWindowIncrementErrors(t *testing.T) {
	w, r, _ := pipeFramer()
	w.AllowIllegalWrites = true
	if err := w.writeWindowUpdate(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrame(); err == nil {
		t.Error("zero connection window increment accepted")
	}
	w2, r2, _ := pipeFramer()
	w2.AllowIllegalWrites = true
	if err := w2.writeWindowUpdate(9, 0); err != nil {
		t.Fatal(err)
	}
	_, err := r2.ReadFrame()
	se, ok := err.(streamErr)
	if !ok || se.StreamID != 9 {
		t.Errorf("want StreamError on 9, got %v", err)
	}
}

func TestHeadersWithPriorityRoundTrip(t *testing.T) {
	w, r, _ := pipeFramer()
	err := w.writeHeadersFrame(headersFrameParam{
		StreamID:      11,
		BlockFragment: []byte{0x82},
		EndStream:     true,
		EndHeaders:    true,
		Priority:      &PriorityParam{StreamDep: 3, Exclusive: true, Weight: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	hf := f.(*HeadersFrame)
	if !hf.endStream() || !hf.endHeaders() {
		t.Error("flags lost")
	}
	want := PriorityParam{StreamDep: 3, Exclusive: true, Weight: 200}
	if hf.Priority != want {
		t.Errorf("priority = %+v", hf.Priority)
	}
	if !bytes.Equal(hf.BlockFragment, []byte{0x82}) {
		t.Errorf("fragment = %x", hf.BlockFragment)
	}
}

func TestOriginFrameRoundTrip(t *testing.T) {
	w, r, _ := pipeFramer()
	origins := []string{"https://example.com", "https://cdn.example.com", "https://fonts.example.net:8443"}
	if err := w.writeOrigin(origins); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	of := f.(*originFrame)
	if of.StreamID != 0 {
		t.Errorf("ORIGIN stream = %d", of.StreamID)
	}
	if !reflect.DeepEqual(of.Origins, origins) {
		t.Errorf("origins = %v", of.Origins)
	}
}

func TestOriginFrameRoundTripQuick(t *testing.T) {
	f := func(entries [][]byte) bool {
		var origins []string
		for _, e := range entries {
			if len(e) > 1000 {
				e = e[:1000]
			}
			origins = append(origins, string(e))
		}
		w, r, _ := pipeFramer()
		if err := w.writeOrigin(origins); err != nil {
			return false
		}
		fr, err := r.ReadFrame()
		if err != nil {
			return false
		}
		of, ok := fr.(*originFrame)
		if !ok {
			return false
		}
		if len(origins) == 0 {
			return len(of.Origins) == 0
		}
		return reflect.DeepEqual(of.Origins, origins)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOriginFrameTruncatedPayload(t *testing.T) {
	w, r, _ := pipeFramer()
	// Entry claims 10 bytes but only 3 follow.
	if err := w.writeFrame(frameOrigin, 0, 0, []byte{0x00, 0x0a, 'a', 'b', 'c'}); err != nil {
		t.Fatal(err)
	}
	_, err := r.ReadFrame()
	ce, ok := err.(connectionError)
	if !ok || ce.Code != errCodeFrameSize {
		t.Errorf("want FRAME_SIZE_ERROR, got %v", err)
	}
}

// TestAltSvcRoundTrip: an ALTSVC frame (type 0xa, RFC 7838) is not
// implemented, so it reads back as an unknownFrame of its full length.
func TestAltSvcRoundTrip(t *testing.T) {
	w, r, _ := pipeFramer()
	payload := append([]byte{0x00, 0x0b}, `example.comh3=":443"`...)
	if err := w.writeFrame(0xa, 0, 0, payload); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	uf, ok := f.(*unknownFrame)
	if !ok || uf.Type != 0xa || uf.Length != uint32(len(payload)) {
		t.Errorf("ALTSVC read back as %T %+v", f, f)
	}
}

func TestUnknownFrameIgnoredByParser(t *testing.T) {
	w, r, _ := pipeFramer()
	if err := w.writeFrame(FrameType(0xfb), 0x7, 9, []byte("anything")); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	uf, ok := f.(*unknownFrame)
	if !ok || uf.Length != uint32(len("anything")) {
		t.Errorf("frame = %#v", f)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	w, r, _ := pipeFramer()
	if err := w.writeFrame(frameData, 0, 1, make([]byte, minMaxFrameSize+1)); err != nil {
		t.Fatal(err)
	}
	_, err := r.ReadFrame()
	ce, ok := err.(connectionError)
	if !ok || ce.Code != errCodeFrameSize {
		t.Errorf("want FRAME_SIZE_ERROR, got %v", err)
	}
}

func TestPaddingHandling(t *testing.T) {
	w, r, _ := pipeFramer()
	// DATA with 4 bytes padding: padlen byte + data + pad.
	payload := append([]byte{4}, append([]byte("body"), 0, 0, 0, 0)...)
	if err := w.writeFrame(frameData, flagPadded, 1, payload); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(f.(*dataFrame).Data) != "body" {
		t.Errorf("data = %q", f.(*dataFrame).Data)
	}

	// Pad length exceeding payload is a protocol error.
	w2, r2, _ := pipeFramer()
	if err := w2.writeFrame(frameData, flagPadded, 1, []byte{200, 'x'}); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ReadFrame(); err == nil {
		t.Error("excessive padding accepted")
	}
}

func TestRSTStreamRoundTrip(t *testing.T) {
	w, r, _ := pipeFramer()
	if err := w.writeRSTStream(21, errCodeRefusedStream); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	rf := f.(*rstStreamFrame)
	if rf.StreamID != 21 || rf.ErrCode != errCodeRefusedStream {
		t.Errorf("rst = %+v", rf)
	}
}

func TestErrCodeStrings(t *testing.T) {
	if errCodeProtocol.String() != "PROTOCOL_ERROR" {
		t.Error(errCodeProtocol.String())
	}
	if ErrCode(0x99).String() == "" {
		t.Error("empty string for unknown code")
	}
	if frameOrigin.String() != "ORIGIN" {
		t.Error(frameOrigin.String())
	}
}

// writeFrame serializes one complete frame from a caller-owned payload.
func (fr *Framer) writeFrame(typ FrameType, flags Flags, streamID uint32, payload []byte) error {
	if len(payload) > maxMaxFrameSize {
		return fmt.Errorf("h2: frame payload %d exceeds protocol maximum", len(payload))
	}
	fr.startWrite(typ, flags, streamID)
	fr.wbuf = append(fr.wbuf, payload...)
	return fr.endWrite()
}

// value returns the last value for id in the frame.
func (f *settingsFrame) value(id SettingID) (uint32, bool) {
	for i := len(f.Settings) - 1; i >= 0; i-- {
		if f.Settings[i].ID == id {
			return f.Settings[i].Val, true
		}
	}
	return 0, false
}
