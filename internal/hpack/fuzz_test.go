package hpack

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// FuzzHPACKDecodeFull throws arbitrary bytes at the header-block decoder.
// The decoder must never panic; when it accepts a block, the decoded
// fields must survive a fresh encode→decode round trip semantically.
// Every input is decoded twice on fresh decoders, the second time by
// AppendDecode into the storage the first decode returned, as h2's
// header reader reuses one slice per connection: both must give the
// same error text and the same fields.
func FuzzHPACKDecodeFull(f *testing.F) {
	f.Add([]byte{0x82})                       // indexed :method GET
	f.Add([]byte{0x40, 0x01, 'a', 0x01, 'b'}) // incremental literal
	f.Add([]byte{0x3f, 0xe1, 0x1f})           // table size update 4096
	f.Add([]byte{0x10, 0x01, 'k', 0x01, 'v'}) // never-indexed literal
	f.Add([]byte{0x00, 0x81, 0x8c})           // huffman-coded literal name
	// Regression: overlong varint (the old bound accepted 2^32 and let
	// continuation bytes run past any 32-bit value).
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x7f, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		fields, err := NewDecoder().DecodeFull(data)
		want := slices.Clone(fields)
		again, errAgain := NewDecoder().AppendDecode(fields[:0], data)
		if fmt.Sprint(errAgain) != fmt.Sprint(err) {
			t.Fatalf("decoding again into the first decode's storage: error %v, the first decode %v", errAgain, err)
		}
		if !slices.Equal(again, want) {
			t.Fatalf("decoding again into the first decode's storage gave %+v, the first decode %+v", again, want)
		}
		if err != nil {
			return
		}
		blk := NewEncoder().AppendHeaderBlock(nil, fields)
		got, err := NewDecoder().DecodeFull(blk)
		if err != nil {
			t.Fatalf("re-encoded block rejected: %v", err)
		}
		if len(got) != len(fields) {
			t.Fatalf("round trip field count %d, want %d", len(got), len(fields))
		}
		for i := range fields {
			if got[i].Name != fields[i].Name || got[i].Value != fields[i].Value || got[i].Sensitive != fields[i].Sensitive {
				t.Fatalf("field %d round trip %+v, want %+v", i, got[i], fields[i])
			}
		}
	})
}

// FuzzHPACKRoundTrip encodes fuzzer-chosen fields and requires the
// decoder to reproduce them exactly — twice on the same connection, so
// the second block exercises dynamic-table hits and the capacity
// handshake rather than only cold encoding.
func FuzzHPACKRoundTrip(f *testing.F) {
	f.Add("content-type", "text/html", false, ":authority", "a.example")
	f.Add("x-custom", "", true, "cookie", "k=v; n=m")
	f.Add("", "", false, "", "")
	f.Add("x-caps", "VaLuE \x00\xff", false, "i", "12345678901234567890")
	f.Fuzz(func(t *testing.T, n1, v1 string, sensitive bool, n2, v2 string) {
		if uint64(len(n1)) > defaultMaxStringLength || uint64(len(v1)) > defaultMaxStringLength ||
			uint64(len(n2)) > defaultMaxStringLength || uint64(len(v2)) > defaultMaxStringLength {
			t.Skip("beyond the decoder's string bound by construction")
		}
		fields := []HeaderField{
			{Name: n1, Value: v1, Sensitive: sensitive},
			{Name: n2, Value: v2},
		}
		e := NewEncoder()
		d := NewDecoder()
		for round := 0; round < 2; round++ {
			blk := e.AppendHeaderBlock(nil, fields)
			got, err := d.DecodeFull(blk)
			if err != nil {
				t.Fatalf("round %d: decode: %v", round, err)
			}
			if len(got) != len(fields) {
				t.Fatalf("round %d: got %d fields, want %d", round, len(got), len(fields))
			}
			for i := range fields {
				if got[i].Name != fields[i].Name || got[i].Value != fields[i].Value || got[i].Sensitive != fields[i].Sensitive {
					t.Fatalf("round %d field %d: %+v, want %+v", round, i, got[i], fields[i])
				}
			}
		}
	})
}

// FuzzHuffmanRoundTrip: every string must survive Huffman encode→decode,
// and HuffmanEncodeLength must agree with the bytes actually produced.
func FuzzHuffmanRoundTrip(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("www.example.com"))
	f.Add([]byte("no-cache"))
	f.Add([]byte{0x00, 0xff, 0x80, 0x7f}) // symbols with 26-30 bit codes
	f.Fuzz(func(t *testing.T, data []byte) {
		if uint64(len(data)) > defaultMaxStringLength {
			t.Skip("beyond the decode bound by construction")
		}
		s := string(data)
		enc := AppendHuffmanString(nil, s)
		if want := HuffmanEncodeLength(s); want != uint64(len(enc)) {
			t.Fatalf("HuffmanEncodeLength = %d, encoder produced %d bytes", want, len(enc))
		}
		dec, err := HuffmanDecode(enc, 0)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if dec != s {
			t.Fatalf("round trip %q, want %q", dec, s)
		}
	})
}

// FuzzHuffmanDecode hammers the decoder with raw bytes. The flat-LUT
// production decoder and the bit-walking reference tree decoder must
// agree on every input — decoded bytes and error classification alike —
// so the fuzzer hunts for divergence between the two implementations.
// Accepted inputs must additionally re-encode to the identical byte
// string: the code is prefix-free and the enforced EOS padding is
// canonical, so decode is injective.
func FuzzHuffmanDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a, 0x6b, 0xa0, 0xab, 0x90, 0xf4, 0xff}) // "www.example.com"
	f.Add([]byte{0xff})                                                                   // 8-bit ones padding: invalid
	f.Add([]byte{0x08, 0x42, 0x10, 0x84, 0x21})                                           // "11111111", no padding
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := HuffmanDecode(data, 0)
		ts, terr := HuffmanDecodeTree(data, 0)
		if err != terr {
			t.Fatalf("LUT err %v, tree err %v for %x", err, terr, data)
		}
		if s != ts {
			t.Fatalf("LUT decoded %q, tree decoded %q for %x", s, ts, data)
		}
		if err != nil {
			return
		}
		re := AppendHuffmanString(nil, s)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode of %q = %x, want original input %x", s, re, data)
		}
	})
}
