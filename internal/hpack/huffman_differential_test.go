package hpack

import (
	"bufio"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// HuffmanDecodeTree decodes Huffman-coded data by walking the decoding
// tree one bit at a time. It is the reference implementation: the
// production decoder (HuffmanDecode) is a flat byte-at-a-time lookup
// table built from the same tree, and the differential tests and fuzz
// targets assert the two agree byte for byte, including error
// classification. Per RFC 7541 §5.2 a padding longer than 7 bits, a
// padding that is not the EOS prefix, or an incomplete code is a
// decoding error.
func HuffmanDecodeTree(data []byte, maxLen uint64) (string, error) {
	if maxLen == 0 {
		maxLen = defaultMaxStringLength
	}
	var out []byte
	n := huffmanRoot
	depth := 0      // bits consumed within the current code
	onesRun := true // whether all bits since the last symbol were ones
	for _, b := range data {
		for bit := 7; bit >= 0; bit-- {
			v := (b >> uint(bit)) & 1
			if v == 0 {
				onesRun = false
			}
			n = n.children[v]
			if n == nil {
				return "", errHuffman
			}
			depth++
			if n.leaf {
				out = append(out, n.sym)
				if uint64(len(out)) > maxLen {
					return "", errStringLength
				}
				n = huffmanRoot
				depth = 0
				onesRun = true
			}
		}
	}
	// Trailing partial code must be a ones-only EOS prefix of < 8 bits.
	if depth > 7 || !onesRun {
		return "", errHuffman
	}
	return string(out), nil
}

// corpusBlobs loads every []byte/string literal from the checked-in Go
// fuzz corpora under testdata/fuzz, so the differential tests replay
// everything the fuzzer ever found interesting — including the
// regression inputs — against both decoders.
func corpusBlobs(t *testing.T) [][]byte {
	t.Helper()
	var blobs [][]byte
	root := filepath.Join("testdata", "fuzz")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			line := sc.Text()
			var lit string
			switch {
			case strings.HasPrefix(line, "[]byte("):
				lit = strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
			case strings.HasPrefix(line, "string("):
				lit = strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")")
			default:
				continue
			}
			s, err := strconv.Unquote(lit)
			if err != nil {
				continue
			}
			blobs = append(blobs, []byte(s))
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("walking fuzz corpora: %v", err)
	}
	if len(blobs) == 0 {
		t.Fatal("no corpus inputs found under testdata/fuzz")
	}
	return blobs
}

// diffDecode runs one input through the LUT and tree decoders under the
// same maxLen and fails unless both the decoded bytes and the error
// classification agree exactly.
func diffDecode(t *testing.T, data []byte, maxLen uint64) {
	t.Helper()
	lut, lutErr := HuffmanDecode(data, maxLen)
	tree, treeErr := HuffmanDecodeTree(data, maxLen)
	if lutErr != treeErr {
		t.Fatalf("decoders disagree on error for %x (maxLen=%d): LUT %v, tree %v", data, maxLen, lutErr, treeErr)
	}
	if lut != tree {
		t.Fatalf("decoders disagree on output for %x (maxLen=%d): LUT %q, tree %q", data, maxLen, lut, tree)
	}
}

// TestHuffmanLUTMatchesTreeOnCorpora replays the checked-in fuzz corpora
// through both decoders at several length bounds.
func TestHuffmanLUTMatchesTreeOnCorpora(t *testing.T) {
	blobs := corpusBlobs(t)
	for _, data := range blobs {
		for _, maxLen := range []uint64{0, 1, 5, 64} {
			diffDecode(t, data, maxLen)
		}
		// The corpus entry may itself be decodable text: its canonical
		// encoding must round-trip identically through both decoders.
		if uint64(len(data)) <= defaultMaxStringLength {
			enc := AppendHuffmanString(nil, string(data))
			diffDecode(t, enc, 0)
		}
	}
}

// TestHuffmanLUTMatchesTreeRandom cross-checks the decoders on seeded
// random inputs: raw noise, valid encodings, and valid encodings with a
// single bit flipped or a truncated tail — the mutations most likely to
// land on an EOS/padding edge case.
func TestHuffmanLUTMatchesTreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		raw := make([]byte, n)
		rng.Read(raw)
		diffDecode(t, raw, 0)
		diffDecode(t, raw, uint64(rng.Intn(8)))

		enc := AppendHuffmanString(nil, string(raw))
		diffDecode(t, enc, 0)
		if len(enc) > 0 {
			flipped := append([]byte(nil), enc...)
			flipped[rng.Intn(len(flipped))] ^= 1 << uint(rng.Intn(8))
			diffDecode(t, flipped, 0)
			diffDecode(t, enc[:rng.Intn(len(enc))], 0)
		}
	}
}

// TestHuffmanLUTRoundTripAllSymbols decodes the encoding of every
// single-byte string and a string containing all 256 symbols, so every
// code in the canonical table passes through the LUT at least once.
func TestHuffmanLUTRoundTripAllSymbols(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
		enc := AppendHuffmanString(nil, string([]byte{byte(i)}))
		got, err := HuffmanDecode(enc, 0)
		if err != nil || got != string([]byte{byte(i)}) {
			t.Fatalf("symbol %#x: decode = %q, %v", i, got, err)
		}
		diffDecode(t, enc, 0)
	}
	enc := AppendHuffmanString(nil, string(all))
	got, err := HuffmanDecode(enc, 0)
	if err != nil || got != string(all) {
		t.Fatalf("all-symbols string: decode err = %v", err)
	}
	diffDecode(t, enc, 0)
}

// TestAppendHuffmanDecodeReusesScratch asserts the scratch-buffer decode
// path appends after existing bytes and bounds only the decoded length.
func TestAppendHuffmanDecodeReusesScratch(t *testing.T) {
	enc := AppendHuffmanString(nil, "no-cache")
	scratch := append(make([]byte, 0, 64), "prefix"...)
	out, err := AppendHuffmanDecode(scratch, enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "prefixno-cache" {
		t.Fatalf("AppendHuffmanDecode = %q, want %q", out, "prefixno-cache")
	}
	if &out[0] != &scratch[:1][0] {
		t.Error("decode into large-enough scratch reallocated the buffer")
	}
	// maxLen bounds the decoded suffix, not the whole buffer.
	if _, err := AppendHuffmanDecode(scratch, enc, 8); err != nil {
		t.Errorf("maxLen equal to decoded length: %v", err)
	}
	if _, err := AppendHuffmanDecode(scratch, enc, 7); err != errStringLength {
		t.Errorf("maxLen below decoded length: err = %v, want ErrStringLength", err)
	}
}
