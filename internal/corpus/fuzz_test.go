package corpus_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
)

// readUntilError decodes pages from a columnar stream until it ends or
// turns out corrupt, and returns what decoded before that and the error
// it stopped at.
func readUntilError(raw []byte) ([]*har.Page, error) {
	r := corpus.NewReader(bytes.NewReader(raw), corpus.FormatColumnar)
	var pages []*har.Page
	for {
		p, err := r.Next()
		if err != nil {
			return pages, err
		}
		pages = append(pages, p)
	}
}

func reencode(t *testing.T, pages []*har.Page) []byte {
	var buf bytes.Buffer
	w := corpus.NewWriter(&buf, corpus.FormatColumnar)
	for _, p := range pages {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzColumnarReader feeds the columnar decoder arbitrary bytes: a small
// valid corpus, its truncations, and whatever the fuzzer derives. The
// decoder must never panic; must not allocate beyond a multiple of the
// stream's own size, whatever lengths and counts the stream declares;
// and whatever pages it does hand out must survive a re-encode — they
// encode to a stream that decodes completely, to pages that encode to
// the same bytes again (compared as bytes, so NaN timings count as
// equal to themselves). Every input is decoded twice, the second time
// on whatever column storage the first decode gave back to the store:
// both must hand out the same pages and stop at the same error.
func FuzzColumnarReader(f *testing.F) {
	valid := func(pages []*har.Page) []byte {
		var buf bytes.Buffer
		w := corpus.NewWriter(&buf, corpus.FormatColumnar)
		for _, p := range pages {
			w.Write(p)
		}
		w.Close()
		return buf.Bytes()
	}
	small := valid(testPages(4))
	f.Add(small)
	for _, cut := range []int{0, 3, 7, 8, 12, 40, len(small) / 3, len(small) / 2, len(small) - 3, len(small) - 1} {
		f.Add(small[:cut])
	}
	f.Add(valid(nil))
	f.Add(valid(widePages(1, 3)))
	// A block header that declares four 2 GiB columns and delivers none.
	f.Add(append([]byte("RCORP\x00\x01\x01"), bytes.Repeat([]byte{0x80, 0x80, 0x80, 0x80, 0x08}, 4)...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pages, stop := readUntilError(raw)
		runtime.ReadMemStats(&after)
		// Worst honest ratios: a 24-byte address per 1-byte encoding, a
		// 16-byte string header per empty SAN, a 290-byte entry per 76
		// bytes, doubled for scratch-then-copy; plus the reader's fixed
		// 64 KiB buffer and first column chunk.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+512<<10); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(raw), grew, bound)
		}
		second, stopAgain := readUntilError(raw)
		if stop.Error() != stopAgain.Error() {
			t.Fatalf("decoding again on recycled columns stopped at %q, the first decode at %q", stopAgain, stop)
		}
		if len(second) != len(pages) {
			t.Fatalf("decoding again on recycled columns gave %d pages, the first decode %d", len(second), len(pages))
		}
		if len(pages) == 0 {
			return
		}
		once := reencode(t, pages)
		if !bytes.Equal(once, reencode(t, second)) {
			t.Fatal("decoding again on recycled columns gave different pages")
		}
		r := corpus.NewReader(bytes.NewReader(once), corpus.FormatColumnar)
		again, err := corpus.ReadAll(r)
		if err != nil {
			t.Fatalf("re-encoded pages do not decode: %v", err)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("reader after a complete stream: %v, want io.EOF", err)
		}
		if len(again) != len(pages) {
			t.Fatalf("re-encoded %d pages, decoded %d", len(pages), len(again))
		}
		if twice := reencode(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("decode(encode(pages)) encodes differently: %d vs %d bytes", len(once), len(twice))
		}
	})
}
