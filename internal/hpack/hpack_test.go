package hpack

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// --- RFC 7541 Appendix C.1: integer representation examples ---

func TestVarIntC1(t *testing.T) {
	cases := []struct {
		n     uint8
		first byte
		v     uint64
		want  []byte
	}{
		{5, 0, 10, []byte{0x0a}},               // C.1.1
		{5, 0, 1337, []byte{0x1f, 0x9a, 0x0a}}, // C.1.2
		{8, 0, 42, []byte{0x2a}},               // C.1.3
	}
	for _, c := range cases {
		got := appendVarInt(nil, c.n, c.first, c.v)
		if !bytes.Equal(got, c.want) {
			t.Errorf("appendVarInt(%d-bit, %d) = %x, want %x", c.n, c.v, got, c.want)
		}
		v, rest, err := readVarInt(got, c.n)
		if err != nil || v != c.v || len(rest) != 0 {
			t.Errorf("readVarInt(%x) = %d,%v rest=%d", got, v, err, len(rest))
		}
	}
}

func TestVarIntRoundTrip(t *testing.T) {
	f := func(v uint32, prefix uint8, pattern byte) bool {
		n := prefix%8 + 1
		first := pattern &^ byte(uint16(1)<<n-1)
		enc := appendVarInt(nil, n, first, uint64(v))
		got, rest, err := readVarInt(enc, n)
		return err == nil && got == uint64(v) && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarIntOverflow(t *testing.T) {
	// 5-bit prefix followed by continuation bytes pushing past 32 bits.
	buf := []byte{0x1f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := readVarInt(buf, 5); err != errIntegerOverflow {
		t.Errorf("want ErrIntegerOverflow, got %v", err)
	}
}

func TestVarIntTruncated(t *testing.T) {
	if _, _, err := readVarInt([]byte{0x1f, 0x9a}, 5); err != errTruncated {
		t.Errorf("want ErrTruncated, got %v", err)
	}
	if _, _, err := readVarInt(nil, 5); err != errTruncated {
		t.Errorf("want ErrTruncated for empty, got %v", err)
	}
}

// --- RFC 7541 Appendix C.2: literal header field examples ---

func TestDecodeC2(t *testing.T) {
	cases := []struct {
		hexIn string
		want  HeaderField
	}{
		{"400a637573746f6d2d6b65790d637573746f6d2d686561646572",
			HeaderField{Name: "custom-key", Value: "custom-header"}},
		{"040c2f73616d706c652f70617468",
			HeaderField{Name: ":path", Value: "/sample/path"}},
		{"100870617373776f726406736563726574",
			HeaderField{Name: "password", Value: "secret", Sensitive: true}},
		{"82", HeaderField{Name: ":method", Value: "GET"}},
	}
	for _, c := range cases {
		d := NewDecoder()
		fields, err := d.DecodeFull(mustHex(t, c.hexIn))
		if err != nil {
			t.Fatalf("DecodeFull(%s): %v", c.hexIn, err)
		}
		if len(fields) != 1 || fields[0] != c.want {
			t.Errorf("DecodeFull(%s) = %v, want %v", c.hexIn, fields, c.want)
		}
	}
}

// --- RFC 7541 Appendix C.3: request examples without Huffman ---

func TestDecodeC3(t *testing.T) {
	d := NewDecoder()

	f1, err := d.DecodeFull(mustHex(t, "828684410f7777772e6578616d706c652e636f6d"))
	if err != nil {
		t.Fatal(err)
	}
	want1 := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "http"},
		{Name: ":path", Value: "/"},
		{Name: ":authority", Value: "www.example.com"},
	}
	if !reflect.DeepEqual(f1, want1) {
		t.Fatalf("request 1 = %v", f1)
	}
	if d.dt.size != 57 {
		t.Fatalf("after request 1, table size = %d, want 57", d.dt.size)
	}

	f2, err := d.DecodeFull(mustHex(t, "828684be58086e6f2d6361636865"))
	if err != nil {
		t.Fatal(err)
	}
	want2 := append(want1[:3:3], HeaderField{Name: ":authority", Value: "www.example.com"},
		HeaderField{Name: "cache-control", Value: "no-cache"})
	if !reflect.DeepEqual(f2, want2) {
		t.Fatalf("request 2 = %v", f2)
	}
	if d.dt.size != 110 {
		t.Fatalf("after request 2, table size = %d, want 110", d.dt.size)
	}

	f3, err := d.DecodeFull(mustHex(t, "828785bf400a637573746f6d2d6b65790c637573746f6d2d76616c7565"))
	if err != nil {
		t.Fatal(err)
	}
	want3 := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/index.html"},
		{Name: ":authority", Value: "www.example.com"},
		{Name: "custom-key", Value: "custom-value"},
	}
	if !reflect.DeepEqual(f3, want3) {
		t.Fatalf("request 3 = %v", f3)
	}
	if d.dt.size != 164 {
		t.Fatalf("after request 3, table size = %d, want 164", d.dt.size)
	}
}

// --- RFC 7541 Appendix C.4: request examples with Huffman ---

func TestDecodeC4(t *testing.T) {
	d := NewDecoder()
	blocks := []string{
		"828684418cf1e3c2e5f23a6ba0ab90f4ff",
		"828684be5886a8eb10649cbf",
		"828785bf408825a849e95ba97d7f8925a849e95bb8e8b4bf",
	}
	var last []HeaderField
	for i, blk := range blocks {
		var err error
		last, err = d.DecodeFull(mustHex(t, blk))
		if err != nil {
			t.Fatalf("block %d: %v", i+1, err)
		}
	}
	want := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/index.html"},
		{Name: ":authority", Value: "www.example.com"},
		{Name: "custom-key", Value: "custom-value"},
	}
	if !reflect.DeepEqual(last, want) {
		t.Fatalf("request 3 = %v", last)
	}
	if d.dt.size != 164 {
		t.Fatalf("table size = %d, want 164", d.dt.size)
	}
}

// --- Huffman coding ---

func TestHuffmanKnownVectors(t *testing.T) {
	// From RFC 7541 C.4.1 and C.6.1.
	cases := []struct{ raw, hexEnc string }{
		{"www.example.com", "f1e3c2e5f23a6ba0ab90f4ff"},
		{"no-cache", "a8eb10649cbf"},
		{"custom-key", "25a849e95ba97d7f"},
		{"custom-value", "25a849e95bb8e8b4bf"},
		{"302", "6402"},
		{"private", "aec3771a4b"},
	}
	for _, c := range cases {
		enc := AppendHuffmanString(nil, c.raw)
		if got := hex.EncodeToString(enc); got != c.hexEnc {
			t.Errorf("huffman(%q) = %s, want %s", c.raw, got, c.hexEnc)
		}
		dec, err := HuffmanDecode(enc, 0)
		if err != nil || dec != c.raw {
			t.Errorf("decode(%s) = %q, %v", c.hexEnc, dec, err)
		}
		if n := HuffmanEncodeLength(c.raw); n != uint64(len(enc)) {
			t.Errorf("HuffmanEncodeLength(%q) = %d, want %d", c.raw, n, len(enc))
		}
	}
}

func TestHuffmanRoundTrip(t *testing.T) {
	f := func(s string) bool {
		enc := AppendHuffmanString(nil, s)
		dec, err := HuffmanDecode(enc, 0)
		return err == nil && dec == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHuffmanRoundTripBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := rng.Intn(300)
		raw := make([]byte, n)
		rng.Read(raw)
		enc := AppendHuffmanString(nil, string(raw))
		dec, err := HuffmanDecode(enc, 0)
		if err != nil || dec != string(raw) {
			t.Fatalf("round trip failed for %x: %v", raw, err)
		}
	}
}

func TestHuffmanBadPadding(t *testing.T) {
	// 'w' is 0x78/7 bits ("1111000"); padding the final octet with a 0
	// bit instead of ones must fail.
	bad := []byte{0xf0} // 1111000 + single 0 pad
	if _, err := HuffmanDecode(bad, 0); err != errHuffman {
		t.Errorf("want ErrHuffman for zero padding, got %v", err)
	}
	// A full byte of EOS prefix (8 bits of padding) must fail too.
	bad2 := []byte{0xff}
	if _, err := HuffmanDecode(bad2, 0); err != errHuffman {
		t.Errorf("want ErrHuffman for 8-bit padding, got %v", err)
	}
}

func TestHuffmanMaxLen(t *testing.T) {
	enc := AppendHuffmanString(nil, "www.example.com")
	if _, err := HuffmanDecode(enc, 5); err != errStringLength {
		t.Errorf("want ErrStringLength, got %v", err)
	}
}

// --- Encoder behaviour ---

func TestEncoderUsesStaticTable(t *testing.T) {
	e := NewEncoder()
	got := e.appendField(nil, HeaderField{Name: ":method", Value: "GET"})
	if !bytes.Equal(got, []byte{0x82}) {
		t.Errorf(":method GET = %x, want 82", got)
	}
}

func TestEncoderIndexesRepeats(t *testing.T) {
	e := NewEncoder()
	d := NewDecoder()
	f := HeaderField{Name: "x-custom", Value: "abcdefgh"}

	b1 := e.appendField(nil, f)
	b2 := e.appendField(nil, f)
	if len(b2) >= len(b1) {
		t.Errorf("second encoding (%d bytes) not shorter than first (%d)", len(b2), len(b1))
	}
	for i, blk := range [][]byte{b1, b2} {
		fields, err := d.DecodeFull(blk)
		if err != nil || len(fields) != 1 || fields[0] != f {
			t.Fatalf("block %d: fields=%v err=%v", i, fields, err)
		}
	}
}

func TestEncoderSensitiveNeverIndexed(t *testing.T) {
	e := NewEncoder()
	f := HeaderField{Name: "authorization", Value: "Bearer tok", Sensitive: true}
	b := e.appendField(nil, f)
	if b[0]&0xf0 != 0x10 {
		t.Errorf("first byte %02x, want 0001xxxx never-indexed", b[0])
	}
	if e.dt.size != 0 {
		t.Error("sensitive field entered dynamic table")
	}
	d := NewDecoder()
	fields, err := d.DecodeFull(b)
	if err != nil || len(fields) != 1 || !fields[0].Sensitive {
		t.Fatalf("decode: %v %v", fields, err)
	}
}

func TestEncoderTableSizeUpdate(t *testing.T) {
	e := NewEncoder()
	d := NewDecoder()
	f := HeaderField{Name: "k", Value: "v"}

	e.SetMaxDynamicTableSize(100)
	b := e.appendField(nil, f)
	if b[0]&0xe0 != 0x20 {
		t.Fatalf("expected table size update prefix, got %02x", b[0])
	}
	if _, err := d.DecodeFull(b); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderRejectsOversizeUpdate(t *testing.T) {
	d := NewDecoder()
	// A size update to 4097 exceeds the 4096-byte default allowance.
	blk := appendVarInt(nil, 5, 0x20, defaultDynamicTableSize+1)
	if _, err := d.DecodeFull(blk); err != errTableSizeUpdate {
		t.Errorf("want ErrTableSizeUpdate, got %v", err)
	}
}

func TestDecoderRejectsMidBlockUpdate(t *testing.T) {
	d := NewDecoder()
	blk := []byte{0x82}                 // :method: GET
	blk = appendVarInt(blk, 5, 0x20, 0) // then a size update
	if _, err := d.DecodeFull(blk); err != errTableSizeUpdate {
		t.Errorf("want ErrTableSizeUpdate for mid-block update, got %v", err)
	}
}

func TestDecoderInvalidIndex(t *testing.T) {
	d := NewDecoder()
	blk := appendVarInt(nil, 7, 0x80, 200) // beyond static, empty dynamic
	if _, err := d.DecodeFull(blk); err != errInvalidIndex {
		t.Errorf("want ErrInvalidIndex, got %v", err)
	}
	blk0 := []byte{0x80} // index 0 is invalid
	if _, err := d.DecodeFull(blk0); err != errInvalidIndex {
		t.Errorf("want ErrInvalidIndex for index 0, got %v", err)
	}
}

func TestDecoderTruncatedLiteral(t *testing.T) {
	d := NewDecoder()
	full := NewEncoder().appendField(nil, HeaderField{Name: "custom", Value: "value-here"})
	for i := 1; i < len(full); i++ {
		if _, err := d.DecodeFull(full[:i]); err == nil {
			t.Errorf("truncation at %d decoded without error", i)
		}
	}
}

// --- Response examples (RFC 7541 C.5 semantics): eviction at 256 bytes ---

func TestResponseEvictionAt256(t *testing.T) {
	const capacity = 256
	e := NewEncoder()
	e.SetMaxDynamicTableSize(capacity)
	d := NewDecoder()

	resp1 := []HeaderField{
		{Name: ":status", Value: "302"},
		{Name: "cache-control", Value: "private"},
		{Name: "date", Value: "Mon, 21 Oct 2013 20:13:21 GMT"},
		{Name: "location", Value: "https://www.example.com"},
	}
	resp2 := []HeaderField{
		{Name: ":status", Value: "307"},
		{Name: "cache-control", Value: "private"},
		{Name: "date", Value: "Mon, 21 Oct 2013 20:13:21 GMT"},
		{Name: "location", Value: "https://www.example.com"},
	}
	resp3 := []HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "cache-control", Value: "private"},
		{Name: "date", Value: "Mon, 21 Oct 2013 20:13:22 GMT"},
		{Name: "location", Value: "https://www.example.com"},
		{Name: "content-encoding", Value: "gzip"},
		{Name: "set-cookie", Value: "foo=ASDJKHQKBZXOQWEOPIUAXQWEOIU; max-age=3600; version=1"},
	}

	for i, resp := range [][]HeaderField{resp1, resp2, resp3} {
		blk := e.AppendHeaderBlock(nil, resp)
		got, err := d.DecodeFull(blk)
		if err != nil {
			t.Fatalf("response %d: %v", i+1, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("response %d = %v", i+1, got)
		}
		if e.dt.size > capacity {
			t.Fatalf("encoder table %d exceeds capacity", e.dt.size)
		}
		if e.dt.size != d.dt.size {
			t.Fatalf("table size mismatch enc=%d dec=%d", e.dt.size, d.dt.size)
		}
	}
	// RFC 7541 C.5.3: final table holds set-cookie, content-encoding and
	// date entries totalling 215 bytes.
	if d.dt.size != 215 {
		t.Errorf("final table size = %d, want 215", d.dt.size)
	}
	if n := d.dt.len(); n != 3 {
		t.Errorf("final table entries = %d, want 3", n)
	}
}

// --- Full round-trip property over random header lists ---

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	type hl struct {
		Names  []string
		Values []string
	}
	e := NewEncoder()
	d := NewDecoder()
	f := func(in hl) bool {
		var fields []HeaderField
		for i := range in.Names {
			v := ""
			if i < len(in.Values) {
				v = in.Values[i]
			}
			fields = append(fields, HeaderField{Name: in.Names[i], Value: v})
		}
		blk := e.AppendHeaderBlock(nil, fields)
		got, err := d.DecodeFull(blk)
		if err != nil {
			return false
		}
		if len(got) != len(fields) {
			return false
		}
		for i := range got {
			if got[i].Name != fields[i].Name || got[i].Value != fields[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDynamicTableOversizeEntryClearsTable(t *testing.T) {
	dt := newDynamicTable(64)
	dt.add(HeaderField{Name: "a", Value: "b"})
	if dt.len() != 1 {
		t.Fatal("entry not added")
	}
	dt.add(HeaderField{Name: strings.Repeat("x", 64), Value: "y"})
	if dt.len() != 0 || dt.size != 0 {
		t.Errorf("oversize add: len=%d size=%d, want empty", dt.len(), dt.size)
	}
}

func TestHuffmanAblationInterop(t *testing.T) {
	// An encoder with Huffman disabled must interoperate with any decoder.
	e := NewEncoder()
	e.SetHuffman(false)
	d := NewDecoder()
	f := HeaderField{Name: "content-type", Value: "text/html; charset=utf-8"}
	blk := e.appendField(nil, f)
	got, err := d.DecodeFull(blk)
	if err != nil || len(got) != 1 || got[0] != f {
		t.Fatalf("interop: %v %v", got, err)
	}
}

// len returns the number of entries in the table.
func (t *dynamicTable) len() int { return len(t.ents) }
