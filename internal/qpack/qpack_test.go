package qpack

import (
	"bytes"
	"errors"
	"testing"

	"respectorigin/internal/hpack"
)

func TestStaticTableShape(t *testing.T) {
	if n := StaticTableSize(); n != 99 {
		t.Fatalf("static table has %d entries, want 99 (RFC 9204 Appendix A)", n)
	}
	// Spot-check normative indices.
	checks := map[int]hpack.HeaderField{
		0:  {Name: ":authority"},
		1:  {Name: ":path", Value: "/"},
		17: {Name: ":method", Value: "GET"},
		25: {Name: ":status", Value: "200"},
		69: {Name: ":status", Value: "421"},
		98: {Name: "x-frame-options", Value: "sameorigin"},
	}
	for i, want := range checks {
		got, ok := StaticEntry(i)
		if !ok || got.Name != want.Name || got.Value != want.Value {
			t.Errorf("StaticEntry(%d) = %+v/%v, want %+v", i, got, ok, want)
		}
	}
	if _, ok := StaticEntry(99); ok {
		t.Errorf("StaticEntry(99) exists, table should end at 98")
	}
	if _, ok := StaticEntry(-1); ok {
		t.Errorf("StaticEntry(-1) exists")
	}
}

func roundTrip(t *testing.T, fields []hpack.HeaderField) []byte {
	t.Helper()
	var e Encoder
	sec := e.AppendFieldSection(nil, fields)
	got, err := new(Decoder).DecodeFieldSection(sec)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(fields) {
		t.Fatalf("got %d fields, want %d", len(got), len(fields))
	}
	for i := range fields {
		if got[i] != fields[i] {
			t.Fatalf("field %d: %+v, want %+v", i, got[i], fields[i])
		}
	}
	return sec
}

func TestFieldSectionRoundTrip(t *testing.T) {
	sec := roundTrip(t, []hpack.HeaderField{
		{Name: ":method", Value: "GET"},                 // exact static match
		{Name: ":authority", Value: "www.a.com"},        // static name, literal value
		{Name: ":path", Value: "/index.html"},           // static name, literal value
		{Name: "x-request-id", Value: "abc123"},         // literal name and value
		{Name: "cookie", Value: "s=1", Sensitive: true}, // never-indexed
		{Name: "", Value: ""},                           // degenerate empty field
	})
	// Prefix: RIC 0, Base 0 — the static-only profile's fixed prefix.
	if sec[0] != 0x00 || sec[1] != 0x00 {
		t.Fatalf("section prefix % x, want 00 00", sec[:2])
	}
}

// TestEncoderNoAllocsSteadyState: once the caller's buffer has grown to
// fit the section, re-encoding into it allocates nothing, whichever
// representation each field takes and with Huffman on or off.
func TestEncoderNoAllocsSteadyState(t *testing.T) {
	fields := []hpack.HeaderField{
		{Name: ":method", Value: "GET"},                                   // indexed
		{Name: ":authority", Value: "www.site-123456.example"},            // name reference, Huffman value
		{Name: ":path", Value: "/static/js/app.bundle.min.js?v=20220413"}, // name reference, Huffman value
		{Name: "x-binary", Value: "\x00\x01\xfe\xff"},                     // literal name, raw value
		{Name: "cookie", Value: "session=1f4c2d8a9b3e5f7a", Sensitive: true},
	}
	for _, e := range []Encoder{{}, {DisableHuffman: true}} {
		buf := e.AppendFieldSection(nil, fields)
		allocs := testing.AllocsPerRun(100, func() {
			buf = e.AppendFieldSection(buf[:0], fields)
		})
		if allocs != 0 {
			t.Errorf("DisableHuffman=%v: AppendFieldSection into a reused buffer allocates %.1f per op, want 0", e.DisableHuffman, allocs)
		}
	}
}

func TestIndexedEncodingIsCompact(t *testing.T) {
	var e Encoder
	sec := e.AppendFieldSection(nil, []hpack.HeaderField{{Name: ":method", Value: "GET"}})
	// 2-byte prefix + 1 indexed byte (0xc0 | 17).
	want := []byte{0x00, 0x00, 0xc0 | 17}
	if !bytes.Equal(sec, want) {
		t.Fatalf("section % x, want % x", sec, want)
	}
}

func TestSensitiveNeverIndexed(t *testing.T) {
	// An exact static match that is marked sensitive must NOT use the
	// indexed representation.
	var e Encoder
	sec := e.AppendFieldSection(nil, []hpack.HeaderField{
		{Name: ":method", Value: "GET", Sensitive: true},
	})
	if sec[2]&0xc0 == 0xc0 {
		t.Fatalf("sensitive field encoded as indexed line: % x", sec)
	}
	got, err := new(Decoder).DecodeFieldSection(sec)
	if err != nil || len(got) != 1 || !got[0].Sensitive {
		t.Fatalf("decode: %+v, %v — want one sensitive field", got, err)
	}
}

func TestHuffmanStringsRoundTrip(t *testing.T) {
	long := "www.0123456789-abcdefghijklmnopqrstuvwxyz.example.com"
	fields := []hpack.HeaderField{
		{Name: ":authority", Value: long},
		{Name: "x-binary", Value: "\x00\x01\xfe\xff"}, // huffman-unfriendly
	}
	var plain Encoder
	plain.DisableHuffman = true
	rawLen := len(plain.AppendFieldSection(nil, fields))
	huffLen := len(roundTrip(t, fields))
	if huffLen >= rawLen {
		t.Fatalf("huffman section %d bytes, raw %d — expected compression", huffLen, rawLen)
	}
	// The raw form decodes identically too.
	sec := plain.AppendFieldSection(nil, fields)
	got, err := new(Decoder).DecodeFieldSection(sec)
	if err != nil || len(got) != 2 || got[0] != fields[0] || got[1] != fields[1] {
		t.Fatalf("raw decode: %+v, %v", got, err)
	}
}

func TestDecoderRejectsDynamic(t *testing.T) {
	cases := []struct {
		name string
		sec  []byte
	}{
		{"nonzero required insert count", []byte{0x01, 0x00, 0xd1}},
		{"indexed dynamic (T=0)", []byte{0x00, 0x00, 0x80}},
		{"name ref dynamic (T=0)", []byte{0x00, 0x00, 0x40, 0x00}},
		{"post-base indexed", []byte{0x00, 0x00, 0x10}},
		{"post-base name ref", []byte{0x00, 0x00, 0x00, 0x00}},
	}
	for _, c := range cases {
		if _, err := new(Decoder).DecodeFieldSection(c.sec); !errors.Is(err, ErrDynamicUnsupported) {
			t.Errorf("%s: err = %v, want ErrDynamicUnsupported", c.name, err)
		}
	}
}

func TestDecoderBounds(t *testing.T) {
	if _, err := new(Decoder).DecodeFieldSection([]byte{0x00}); !errors.Is(err, ErrTruncated) {
		t.Errorf("cut prefix: err = %v, want ErrTruncated", err)
	}
	if _, err := new(Decoder).DecodeFieldSection([]byte{0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}); !errors.Is(err, ErrIntegerOverflow) {
		t.Errorf("overlong varint: err = %v, want ErrIntegerOverflow", err)
	}
	// Static index past the table end.
	sec := appendVarInt([]byte{0x00, 0x00}, 6, 0xc0, 99)
	if _, err := new(Decoder).DecodeFieldSection(sec); !errors.Is(err, ErrInvalidIndex) {
		t.Errorf("index 99: err = %v, want ErrInvalidIndex", err)
	}
	// A string literal longer than the decoder's bound.
	d := &Decoder{MaxStringLength: 4}
	var e Encoder
	long := e.AppendFieldSection(nil, []hpack.HeaderField{{Name: "x-k", Value: "0123456789"}})
	if _, err := d.DecodeFieldSection(long); err == nil {
		t.Errorf("over-bound string accepted")
	}
	// Truncated mid-string.
	full := e.AppendFieldSection(nil, []hpack.HeaderField{{Name: ":authority", Value: "host.example"}})
	if _, err := new(Decoder).DecodeFieldSection(full[:len(full)-3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("cut value: err = %v, want ErrTruncated", err)
	}
}
