package hpack

// Canonical Huffman code from RFC 7541 Appendix B. huffmanCodes[i] holds
// the code for octet i, right-aligned; huffmanCodeLen[i] its bit length.
// The 256th symbol (EOS) is used only as padding and is never emitted.
var huffmanCodes = [256]uint32{
	0x1ff8, 0x7fffd8, 0xfffffe2, 0xfffffe3, 0xfffffe4, 0xfffffe5, 0xfffffe6, 0xfffffe7,
	0xfffffe8, 0xffffea, 0x3ffffffc, 0xfffffe9, 0xfffffea, 0x3ffffffd, 0xfffffeb, 0xfffffec,
	0xfffffed, 0xfffffee, 0xfffffef, 0xffffff0, 0xffffff1, 0xffffff2, 0x3ffffffe, 0xffffff3,
	0xffffff4, 0xffffff5, 0xffffff6, 0xffffff7, 0xffffff8, 0xffffff9, 0xffffffa, 0xffffffb,
	0x14, 0x3f8, 0x3f9, 0xffa, 0x1ff9, 0x15, 0xf8, 0x7fa,
	0x3fa, 0x3fb, 0xf9, 0x7fb, 0xfa, 0x16, 0x17, 0x18,
	0x0, 0x1, 0x2, 0x19, 0x1a, 0x1b, 0x1c, 0x1d,
	0x1e, 0x1f, 0x5c, 0xfb, 0x7ffc, 0x20, 0xffb, 0x3fc,
	0x1ffa, 0x21, 0x5d, 0x5e, 0x5f, 0x60, 0x61, 0x62,
	0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a,
	0x6b, 0x6c, 0x6d, 0x6e, 0x6f, 0x70, 0x71, 0x72,
	0xfc, 0x73, 0xfd, 0x1ffb, 0x7fff0, 0x1ffc, 0x3ffc, 0x22,
	0x7ffd, 0x3, 0x23, 0x4, 0x24, 0x5, 0x25, 0x26,
	0x27, 0x6, 0x74, 0x75, 0x28, 0x29, 0x2a, 0x7,
	0x2b, 0x76, 0x2c, 0x8, 0x9, 0x2d, 0x77, 0x78,
	0x79, 0x7a, 0x7b, 0x7ffe, 0x7fc, 0x3ffd, 0x1ffd, 0xffffffc,
	0xfffe6, 0x3fffd2, 0xfffe7, 0xfffe8, 0x3fffd3, 0x3fffd4, 0x3fffd5, 0x7fffd9,
	0x3fffd6, 0x7fffda, 0x7fffdb, 0x7fffdc, 0x7fffdd, 0x7fffde, 0xffffeb, 0x7fffdf,
	0xffffec, 0xffffed, 0x3fffd7, 0x7fffe0, 0xffffee, 0x7fffe1, 0x7fffe2, 0x7fffe3,
	0x7fffe4, 0x1fffdc, 0x3fffd8, 0x7fffe5, 0x3fffd9, 0x7fffe6, 0x7fffe7, 0xffffef,
	0x3fffda, 0x1fffdd, 0xfffe9, 0x3fffdb, 0x3fffdc, 0x7fffe8, 0x7fffe9, 0x1fffde,
	0x7fffea, 0x3fffdd, 0x3fffde, 0xfffff0, 0x1fffdf, 0x3fffdf, 0x7fffeb, 0x7fffec,
	0x1fffe0, 0x1fffe1, 0x3fffe0, 0x1fffe2, 0x7fffed, 0x3fffe1, 0x7fffee, 0x7fffef,
	0xfffea, 0x3fffe2, 0x3fffe3, 0x3fffe4, 0x7ffff0, 0x3fffe5, 0x3fffe6, 0x7ffff1,
	0x3ffffe0, 0x3ffffe1, 0xfffeb, 0x7fff1, 0x3fffe7, 0x7ffff2, 0x3fffe8, 0x1ffffec,
	0x3ffffe2, 0x3ffffe3, 0x3ffffe4, 0x7ffffde, 0x7ffffdf, 0x3ffffe5, 0xfffff1, 0x1ffffed,
	0x7fff2, 0x1fffe3, 0x3ffffe6, 0x7ffffe0, 0x7ffffe1, 0x3ffffe7, 0x7ffffe2, 0xfffff2,
	0x1fffe4, 0x1fffe5, 0x3ffffe8, 0x3ffffe9, 0xffffffd, 0x7ffffe3, 0x7ffffe4, 0x7ffffe5,
	0xfffec, 0xfffff3, 0xfffed, 0x1fffe6, 0x3fffe9, 0x1fffe7, 0x1fffe8, 0x7ffff3,
	0x3fffea, 0x3fffeb, 0x1ffffee, 0x1ffffef, 0xfffff4, 0xfffff5, 0x3ffffea, 0x7ffff4,
	0x3ffffeb, 0x7ffffe6, 0x3ffffec, 0x3ffffed, 0x7ffffe7, 0x7ffffe8, 0x7ffffe9, 0x7ffffea,
	0x7ffffeb, 0xffffffe, 0x7ffffec, 0x7ffffed, 0x7ffffee, 0x7ffffef, 0x7fffff0, 0x3ffffee,
}

var huffmanCodeLen = [256]uint8{
	13, 23, 28, 28, 28, 28, 28, 28, 28, 24, 30, 28, 28, 30, 28, 28,
	28, 28, 28, 28, 28, 28, 30, 28, 28, 28, 28, 28, 28, 28, 28, 28,
	6, 10, 10, 12, 13, 6, 8, 11, 10, 10, 8, 11, 8, 6, 6, 6,
	5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 7, 8, 15, 6, 12, 10,
	13, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
	7, 7, 7, 7, 7, 7, 7, 7, 8, 7, 8, 13, 19, 13, 14, 6,
	15, 5, 6, 5, 6, 5, 6, 6, 6, 5, 7, 7, 6, 6, 6, 5,
	6, 7, 6, 5, 5, 6, 7, 7, 7, 7, 7, 15, 11, 14, 13, 28,
	20, 22, 20, 20, 22, 22, 22, 23, 22, 23, 23, 23, 23, 23, 24, 23,
	24, 24, 22, 23, 24, 23, 23, 23, 23, 21, 22, 23, 22, 23, 23, 24,
	22, 21, 20, 22, 22, 23, 23, 21, 23, 22, 22, 24, 21, 22, 23, 23,
	21, 21, 22, 21, 23, 22, 23, 23, 20, 22, 22, 22, 23, 22, 22, 23,
	26, 26, 20, 19, 22, 23, 22, 25, 26, 26, 26, 27, 27, 26, 24, 25,
	19, 21, 26, 27, 27, 26, 27, 24, 21, 21, 26, 26, 28, 27, 27, 27,
	20, 24, 20, 21, 22, 21, 21, 23, 22, 22, 25, 25, 24, 24, 26, 23,
	26, 27, 26, 26, 27, 27, 27, 27, 27, 28, 27, 27, 27, 27, 27, 26,
}

// huffmanNode is a binary decoding-tree node. Leaves carry the decoded
// symbol; interior nodes carry child links.
type huffmanNode struct {
	children [2]*huffmanNode
	sym      byte
	leaf     bool
}

var huffmanRoot = buildHuffmanTree()

func buildHuffmanTree() *huffmanNode {
	root := &huffmanNode{}
	for sym := 0; sym < 256; sym++ {
		code := huffmanCodes[sym]
		n := root
		for bit := int(huffmanCodeLen[sym]) - 1; bit >= 0; bit-- {
			b := (code >> uint(bit)) & 1
			if n.children[b] == nil {
				n.children[b] = &huffmanNode{}
			}
			n = n.children[b]
		}
		n.sym = byte(sym)
		n.leaf = true
	}
	return root
}

// HuffmanEncodeLength returns the number of octets the Huffman coding of
// s occupies, including the final padding bits.
func HuffmanEncodeLength(s string) uint64 {
	var bits uint64
	for i := 0; i < len(s); i++ {
		bits += uint64(huffmanCodeLen[s[i]])
	}
	return (bits + 7) / 8
}

// AppendHuffmanString appends the Huffman coding of s to dst, padding the
// final octet with the most-significant bits of the EOS symbol (all ones)
// per RFC 7541 §5.2.
func AppendHuffmanString(dst []byte, s string) []byte {
	var acc uint64 // bit accumulator, most-recent code in low bits
	var nbits uint
	for i := 0; i < len(s); i++ {
		c := s[i]
		acc = acc<<uint(huffmanCodeLen[c]) | uint64(huffmanCodes[c])
		nbits += uint(huffmanCodeLen[c])
		for nbits >= 8 {
			nbits -= 8
			dst = append(dst, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		// Pad with ones (EOS prefix).
		acc = acc<<(8-nbits) | (1<<(8-nbits) - 1)
		dst = append(dst, byte(acc))
	}
	return dst
}

// --- Flat LUT decoder ---
//
// The production decoder consumes input one byte at a time. A state is
// a node of the decoding tree reachable at a byte boundary (the code
// residue carried across bytes); for every (state, next byte) pair the
// table below precomputes the walk over those 8 bits: up to two decoded
// symbols (the shortest code is 5 bits, so 8 bits complete at most a
// residue plus one 5-bit code), the next state, and whether the walk
// fell off the tree (invalid coding). Padding legality is a property of
// the final state alone — its depth is the number of bits into the
// pending code and huffmanStateOnes records whether that partial path
// is the all-ones EOS prefix — so the RFC 7541 §5.2 checks carry over
// from the bit-walking reference decoder (HuffmanDecodeTree, in
// huffman_differential_test.go) unchanged.

// huffmanLUTEntry is one (state, byte) transition.
type huffmanLUTEntry struct {
	next    uint16 // state index after consuming the byte
	syms    [2]byte
	nsyms   uint8
	invalid bool // walk reached a nil child (after emitting syms)
}

var (
	// huffmanLUT is the flat transition table, indexed state<<8|byte.
	huffmanLUT []huffmanLUTEntry
	// huffmanStateDepth is the bit depth of each state's pending code.
	huffmanStateDepth []uint8
	// huffmanStateOnes records whether each state's pending-code path
	// consists entirely of ones (a legal EOS-prefix padding).
	huffmanStateOnes []bool
)

func init() { buildHuffmanLUT() }

// buildHuffmanLUT discovers the byte-boundary states by breadth-first
// search from the tree root and precomputes every 8-bit walk.
func buildHuffmanLUT() {
	type stateInfo struct {
		n     *huffmanNode
		depth uint8
		ones  bool
	}
	index := map[*huffmanNode]uint16{huffmanRoot: 0}
	states := []stateInfo{{huffmanRoot, 0, true}}
	for si := 0; si < len(states); si++ {
		start := states[si]
		for b := 0; b < 256; b++ {
			var e huffmanLUTEntry
			n := start.n
			depth, ones := start.depth, start.ones
			for bit := 7; bit >= 0; bit-- {
				v := (byte(b) >> uint(bit)) & 1
				if v == 0 {
					ones = false
				}
				n = n.children[v]
				if n == nil {
					e.invalid = true
					break
				}
				depth++
				if n.leaf {
					if e.nsyms >= 2 {
						panic("hpack: >2 symbols in one huffman LUT step")
					}
					e.syms[e.nsyms] = n.sym
					e.nsyms++
					n = huffmanRoot
					depth, ones = 0, true
				}
			}
			if !e.invalid {
				idx, seen := index[n]
				if !seen {
					idx = uint16(len(states))
					index[n] = idx
					states = append(states, stateInfo{n, depth, ones})
				}
				e.next = idx
			}
			huffmanLUT = append(huffmanLUT, e)
		}
		// Entries for states discovered during this pass are appended by
		// the outer loop as si advances.
	}
	huffmanStateDepth = make([]uint8, len(states))
	huffmanStateOnes = make([]bool, len(states))
	for i, s := range states {
		huffmanStateDepth[i] = s.depth
		huffmanStateOnes[i] = s.ones
	}
}

// AppendHuffmanDecode decodes Huffman-coded data into dst (which may be
// a reused scratch buffer) and returns the extended slice. maxLen bounds
// len(result) (0 means defaultMaxStringLength). Per RFC 7541 §5.2 a
// padding longer than 7 bits, a padding that is not the EOS prefix, or
// an incomplete code is errHuffman; on error the returned slice holds
// the symbols decoded so far and must be discarded by the caller.
func AppendHuffmanDecode(dst, data []byte, maxLen uint64) ([]byte, error) {
	if maxLen == 0 {
		maxLen = defaultMaxStringLength
	}
	base := uint64(len(dst))
	st := uint16(0)
	for _, b := range data {
		e := &huffmanLUT[int(st)<<8|int(b)]
		if e.nsyms > 0 {
			dst = append(dst, e.syms[:e.nsyms]...)
			if uint64(len(dst))-base > maxLen {
				return dst, errStringLength
			}
		}
		if e.invalid {
			return dst, errHuffman
		}
		st = e.next
	}
	if huffmanStateDepth[st] > 7 || !huffmanStateOnes[st] {
		return dst, errHuffman
	}
	return dst, nil
}

// HuffmanDecode decodes Huffman-coded data via the flat lookup table.
// maxLen bounds the decoded length (0 means defaultMaxStringLength).
func HuffmanDecode(data []byte, maxLen uint64) (string, error) {
	// The shortest code is 5 bits, so decoded length ≤ ⌈len(data)*8/5⌉;
	// sizing the buffer to that bound makes growth reallocation
	// impossible and leaves one string materialization as the only
	// variable-size allocation.
	out, err := AppendHuffmanDecode(make([]byte, 0, (len(data)*8+4)/5), data, maxLen)
	if err != nil {
		return "", err
	}
	return string(out), nil
}
