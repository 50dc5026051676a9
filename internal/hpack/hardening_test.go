package hpack

import (
	"bytes"
	"strings"
	"testing"
)

// --- varint (prefix integer) overflow hardening ---

// TestVarIntRejectsExactly2To32 pins the off-by-one in the old bound:
// i > 1<<32 accepted the value 2^32 itself, which silently truncates in
// every uint32 cast downstream.
func TestVarIntRejectsExactly2To32(t *testing.T) {
	enc := appendVarInt(nil, 7, 0, 1<<32)
	if _, _, err := readVarInt(enc, 7); err != errIntegerOverflow {
		t.Errorf("readVarInt(2^32) err = %v, want ErrIntegerOverflow", err)
	}
}

// TestVarIntMaxValueAccepted checks the bound is exactly 2^32-1.
func TestVarIntMaxValueAccepted(t *testing.T) {
	enc := appendVarInt(nil, 7, 0, maxVarInt)
	v, rest, err := readVarInt(enc, 7)
	if err != nil || v != maxVarInt || len(rest) != 0 {
		t.Errorf("readVarInt(2^32-1) = %d, %v; want %d, nil", v, err, uint64(maxVarInt))
	}
}

// TestVarIntLongContinuationRejected: more than five continuation octets
// cannot encode a value within the 32-bit bound, and at large shifts the
// old accumulator arithmetic approached uint64 wrap-around. All such
// sequences must fail fast, including non-canonical zero padding.
func TestVarIntLongContinuationRejected(t *testing.T) {
	cases := [][]byte{
		// Prefix full, then 0x80 continuation padding far past 32 bits.
		append([]byte{0xff}, bytes.Repeat([]byte{0x80}, 8)...),
		// The shift-wrap shape: eight max continuation octets.
		append([]byte{0xff}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}...),
		// Zero-valued but overlong: 6 continuation bytes ending cleanly.
		{0x7f, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
	}
	for i, in := range cases {
		if _, _, err := readVarInt(in, 7); err != errIntegerOverflow {
			t.Errorf("case %d: readVarInt(%x) err = %v, want ErrIntegerOverflow", i, in, err)
		}
	}
}

// TestDecodeFullHugeIndexRejected drives the overflow through the public
// entry point: an indexed field whose index is an overlong varint.
func TestDecodeFullHugeIndexRejected(t *testing.T) {
	blk := append([]byte{0xff}, bytes.Repeat([]byte{0xff}, 9)...)
	if _, err := NewDecoder().DecodeFull(blk); err != errIntegerOverflow {
		t.Errorf("DecodeFull(huge index) err = %v, want ErrIntegerOverflow", err)
	}
}

// --- default string expansion bound ---

// TestRawStringDefaultBound: a raw literal longer than defaultMaxStringLength must be rejected rather
// than decoded unbounded.
func TestRawStringDefaultBound(t *testing.T) {
	name := strings.Repeat("a", defaultMaxStringLength+1)
	blk := appendVarInt(nil, 4, 0, 0) // literal without indexing, new name
	blk = appendVarInt(blk, 7, 0, uint64(len(name)))
	blk = append(blk, name...)
	blk = appendString(blk, "v", false)
	if _, err := NewDecoder().DecodeFull(blk); err != errStringLength {
		t.Errorf("DecodeFull(oversize raw literal) err = %v, want ErrStringLength", err)
	}
}

// TestHuffmanDecodeDefaultBound: HuffmanDecode with maxLen 0 previously
// meant "unbounded"; it must now stop at defaultMaxStringLength.
func TestHuffmanDecodeDefaultBound(t *testing.T) {
	// The 5-bit code for '1' repeated 8 times fills exactly 5 octets, so
	// repeating the block decodes 8 symbols per 5 bytes with no padding.
	block := []byte{0x08, 0x42, 0x10, 0x84, 0x21}
	if s, err := HuffmanDecode(block, 0); err != nil || s != "11111111" {
		t.Fatalf("block sanity check: %q, %v", s, err)
	}
	reps := defaultMaxStringLength/8 + 1 // expands past the bound
	data := bytes.Repeat(block, reps)
	if _, err := HuffmanDecode(data, 0); err != errStringLength {
		t.Errorf("HuffmanDecode(expanding input, maxLen=0) err = %v, want ErrStringLength", err)
	}
}

// --- encoder table size update hardening ---

// TestEncoderCapacityIncreaseNoSpuriousFlush pins a fuzz-surfaced interop
// bug: minSize was zero-initialized, so the first capacity *increase*
// emitted a shrink-to-zero update before the real one. The peer decoder
// obediently flushed its dynamic table and the encoder's next dynamic
// index pointed at an entry the decoder no longer had.
func TestEncoderCapacityIncreaseNoSpuriousFlush(t *testing.T) {
	e := NewEncoder()
	d := NewDecoder()
	f := HeaderField{Name: "x-custom", Value: "abc"}

	b1 := e.appendField(nil, f) // literal with incremental indexing
	if _, err := d.DecodeFull(b1); err != nil {
		t.Fatalf("first block: %v", err)
	}
	if d.dt.size != f.size() {
		t.Fatalf("decoder table size = %d, want %d", d.dt.size, f.size())
	}

	// A capacity announced with no dip below it: the zero minSize read it
	// as a raise from nothing.
	e.SetMaxDynamicTableSize(defaultDynamicTableSize)
	b2 := e.appendField(nil, f) // should be a dynamic indexed field

	updates := 0
	for _, c := range b2 {
		if c&0xe0 == 0x20 && c&0x80 == 0 {
			updates++
		} else {
			break
		}
	}
	if updates != 1 {
		t.Errorf("capacity increase emitted %d size updates, want exactly 1 (no shrink-to-zero)", updates)
	}
	fields, err := d.DecodeFull(b2)
	if err != nil {
		t.Fatalf("second block after capacity raise: %v", err)
	}
	if len(fields) != 1 || fields[0].Name != f.Name || fields[0].Value != f.Value {
		t.Errorf("round trip after capacity raise = %+v, want %+v", fields, f)
	}
	if d.dt.size == 0 {
		t.Error("decoder dynamic table was flushed by a capacity increase")
	}
}
