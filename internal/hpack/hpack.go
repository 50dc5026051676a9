// Package hpack implements HPACK header compression for HTTP/2 as
// specified by RFC 7541.
//
// The package provides an Encoder and a Decoder operating on complete
// header blocks, the primitive integer and string representations from
// RFC 7541 §5, the full static table from Appendix A, a size-bounded
// dynamic table with FIFO eviction, and canonical Huffman coding from
// Appendix B.
//
// It is written from scratch against the RFC; the Huffman code table is
// the canonical table published in RFC 7541 Appendix B.
package hpack

import (
	"errors"
	"fmt"
)

// A HeaderField is a name/value pair carried in a header block.
type HeaderField struct {
	Name  string
	Value string

	// Sensitive marks the field as never-indexed (RFC 7541 §6.2.3):
	// intermediaries must not add it to any dynamic table.
	Sensitive bool
}

// String renders the field as "name: value" with a secrecy marker for
// sensitive fields.
func (f HeaderField) String() string {
	var suffix string
	if f.Sensitive {
		suffix = " (sensitive)"
	}
	return fmt.Sprintf("%s: %s%s", f.Name, f.Value, suffix)
}

// size returns the RFC 7541 §4.1 size of the field: name length plus
// value length plus 32 bytes of per-entry overhead.
func (f HeaderField) size() uint32 {
	return uint32(len(f.Name)) + uint32(len(f.Value)) + 32
}

// defaultDynamicTableSize is the SETTINGS_HEADER_TABLE_SIZE default from
// RFC 9113 §6.5.2.
const defaultDynamicTableSize = 4096

// Decoding errors.
var (
	// errStringLength is returned when a decoded string exceeds the
	// decoder's configured maximum.
	errStringLength = errors.New("hpack: string too long")

	// errInvalidIndex is returned for an index outside both tables.
	errInvalidIndex = errors.New("hpack: invalid table index")

	// errIntegerOverflow is returned when a varint exceeds 32 bits.
	errIntegerOverflow = errors.New("hpack: integer overflow")

	// errTruncated is returned when a header block ends mid-field.
	errTruncated = errors.New("hpack: truncated header block")

	// errTableSizeUpdate is returned for a dynamic table size update
	// exceeding the limit set by the decoder's owner.
	errTableSizeUpdate = errors.New("hpack: dynamic table size update exceeds limit")

	// errHuffman is returned for invalid Huffman-coded data, including
	// the forbidden 30-bit-padding EOS encoding.
	errHuffman = errors.New("hpack: invalid huffman-coded data")
)

// appendVarInt appends the RFC 7541 §5.1 prefix-integer representation of
// i using an n-bit prefix (1 ≤ n ≤ 8) OR-ed into first, which carries the
// pattern bits above the prefix.
func appendVarInt(dst []byte, n uint8, first byte, i uint64) []byte {
	k := uint64(1)<<n - 1
	if i < k {
		return append(dst, first|byte(i))
	}
	dst = append(dst, first|byte(k))
	i -= k
	for i >= 128 {
		dst = append(dst, byte(i)|0x80)
		i >>= 7
	}
	return append(dst, byte(i))
}

// maxVarInt bounds decoded prefix integers. Indices, string lengths and
// table sizes all fit in 32 bits; RFC 7541 §5.1 explicitly allows
// implementations to set a limit on accepted integer values.
const maxVarInt = 1<<32 - 1

// readVarInt decodes an n-bit-prefix integer from buf. It returns the
// value and the remaining bytes. Values above maxVarInt — including
// continuation sequences long enough to wrap a uint64 accumulator — are
// errIntegerOverflow.
func readVarInt(buf []byte, n uint8) (uint64, []byte, error) {
	if len(buf) == 0 {
		return 0, nil, errTruncated
	}
	k := uint64(1)<<n - 1
	i := uint64(buf[0]) & k
	buf = buf[1:]
	if i < k {
		return i, buf, nil
	}
	var shift uint
	for {
		if len(buf) == 0 {
			return 0, nil, errTruncated
		}
		b := buf[0]
		buf = buf[1:]
		// Five continuation octets already cover 2^35 > maxVarInt; a
		// sixth can only overflow (or, at larger shifts, wrap uint64),
		// so reject it before touching the accumulator.
		if shift > 28 {
			return 0, nil, errIntegerOverflow
		}
		i += uint64(b&0x7f) << shift
		if i > maxVarInt {
			return 0, nil, errIntegerOverflow
		}
		if b&0x80 == 0 {
			return i, buf, nil
		}
		shift += 7
	}
}

// appendString appends the §5.2 string literal representation of s.
// When huffman is true and Huffman coding shortens the string, the
// Huffman form is used; otherwise the raw form is used.
func appendString(dst []byte, s string, huffman bool) []byte {
	if huffman {
		if hl := HuffmanEncodeLength(s); hl < uint64(len(s)) {
			dst = appendVarInt(dst, 7, 0x80, hl)
			return AppendHuffmanString(dst, s)
		}
	}
	dst = appendVarInt(dst, 7, 0, uint64(len(s)))
	return append(dst, s...)
}

// defaultMaxStringLength bounds a single decoded string. A header block
// larger than this is cut off at the HTTP/2 layer anyway
// (ENHANCE_YOUR_CALM), so a decoder should never expand further than
// this — it keeps a hostile Huffman literal from ballooning unchecked.
const defaultMaxStringLength = 1 << 20

// readString decodes a §5.2 string literal, applying Huffman decoding
// when the H bit is set, of at most defaultMaxStringLength bytes
// decoded. scratch, when non-nil, is used as the Huffman decode buffer
// so the only allocation is the returned string; the (possibly grown)
// buffer comes back to the caller for reuse.
func readString(buf []byte, scratch []byte) (s string, rest, scratchOut []byte, err error) {
	if len(buf) == 0 {
		return "", nil, scratch, errTruncated
	}
	huff := buf[0]&0x80 != 0
	n, rest, err := readVarInt(buf, 7)
	if err != nil {
		return "", nil, scratch, err
	}
	if uint64(len(rest)) < n {
		return "", nil, scratch, errTruncated
	}
	raw := rest[:n]
	rest = rest[n:]
	if !huff {
		if n > defaultMaxStringLength {
			return "", nil, scratch, errStringLength
		}
		return string(raw), rest, scratch, nil
	}
	dec, err := AppendHuffmanDecode(scratch[:0], raw, defaultMaxStringLength)
	if err != nil {
		return "", nil, dec, err
	}
	return string(dec), rest, dec, nil
}
