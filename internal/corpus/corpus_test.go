package corpus_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
)

// testPages builds a small synthetic corpus exercising every encoded
// field: IPv4/IPv6/zoned/invalid addresses, empty and long SAN lists,
// zero timings, negative initiators, unicode strings.
func testPages(n int) []*har.Page {
	var out []*har.Page
	for r := 1; r <= n; r++ {
		p := &har.Page{
			URL:       fmt.Sprintf("https://www.site-%d.example/", r),
			Host:      fmt.Sprintf("www.site-%d.example", r),
			Rank:      r,
			DOMLoadMs: 123.456 + float64(r)*0.001,
			OnLoadMs:  999.25 * float64(r),
			ExtraDNS:  r % 3,
			ExtraTLS:  r % 2,
		}
		root := har.Entry{
			URL: p.URL, Host: p.Host, Method: "GET", Protocol: "h2",
			Status: 200, MimeType: "text/html", BodySize: int64(1000 * r),
			Secure: true, NewDNS: true, NewTLS: true,
			ServerIP:  netip.MustParseAddr("104.16.0.7"),
			ServerASN: 13335,
			DNSAnswer: []netip.Addr{netip.MustParseAddr("104.16.0.7"), netip.MustParseAddr("2606:4700::6810:7")},
			CertSANs:  []string{p.Host, "*.site.example"},
			Initiator: -1, RenderBlocking: true,
			Timings: har.Timings{Blocked: 0, DNS: 12.5, Connect: 30.25, SSL: 41.125, Send: 0.5, Wait: 80, Receive: 10.0625},
		}
		p.Entries = append(p.Entries, root)
		for i := 1; i <= r%5; i++ {
			e := har.Entry{
				URL: fmt.Sprintf("https://cdn-%d.example/r/%d.js", i, i), Host: fmt.Sprintf("cdn-%d.example", i),
				Method: "GET", Protocol: "http/1.1", Status: 200, MimeType: "application/javascript",
				BodySize: int64(64 * i), Secure: i%2 == 0, NewDNS: i%2 == 1,
				ServerASN: uint32(1000 + i), Initiator: 0,
				Timings: har.Timings{Wait: float64(i) * 1.5, Receive: 3},
			}
			if i == 1 {
				e.ServerIP = netip.MustParseAddr("fe80::1%eth0")
				e.CertIssuer = "Let's Encrypt ✓"
			}
			p.Entries = append(p.Entries, e)
		}
		out = append(out, p)
	}
	return out
}

func encode(t *testing.T, pages []*har.Page, f corpus.Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := corpus.NewWriter(&buf, f)
	for _, p := range pages {
		if err := w.Write(p); err != nil {
			t.Fatalf("%s write: %v", f, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("%s close: %v", f, err)
	}
	return buf.Bytes()
}

func decode(t *testing.T, raw []byte, f corpus.Format) []*har.Page {
	t.Helper()
	pages, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(raw), f))
	if err != nil {
		t.Fatalf("%s read: %v", f, err)
	}
	return pages
}

func TestColumnarRoundTrip(t *testing.T) {
	// Enough pages to cross several block boundaries.
	pages := testPages(700)
	raw := encode(t, pages, corpus.FormatColumnar)
	got := decode(t, raw, corpus.FormatColumnar)
	if len(got) != len(pages) {
		t.Fatalf("round trip lost pages: wrote %d, read %d", len(pages), len(got))
	}
	for i := range pages {
		if !reflect.DeepEqual(pages[i], got[i]) {
			t.Fatalf("page %d differs after columnar round trip:\nwrote %+v\nread  %+v", i, pages[i], got[i])
		}
	}
}

// TestCrossFormatByteIdentity is the package-level form of the crown
// jewel gate: decoding a columnar corpus and re-encoding it as NDJSON
// must reproduce the direct NDJSON bytes exactly.
func TestCrossFormatByteIdentity(t *testing.T) {
	pages := testPages(300)
	direct := encode(t, pages, corpus.FormatNDJSON)
	viaColumnar := encode(t, decode(t, encode(t, pages, corpus.FormatColumnar), corpus.FormatColumnar), corpus.FormatNDJSON)
	if !bytes.Equal(direct, viaColumnar) {
		t.Fatalf("columnar->decode->NDJSON differs from direct NDJSON (lens %d vs %d)", len(direct), len(viaColumnar))
	}
}

// The NDJSON encoding is json.Encoder's: one compact object per page,
// newline-terminated. Every golden corpus digest is recorded against
// these bytes.
func TestNDJSONIsOneJSONEncodedPagePerLine(t *testing.T) {
	pages := testPages(20)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, p := range pages {
		if err := enc.Encode(p); err != nil {
			t.Fatal(err)
		}
	}
	got := encode(t, pages, corpus.FormatNDJSON)
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatal("corpus NDJSON writer diverges from json.Encoder bytes")
	}
}

func TestEmptyCorpusRoundTrip(t *testing.T) {
	for _, f := range []corpus.Format{corpus.FormatNDJSON, corpus.FormatColumnar} {
		raw := encode(t, nil, f)
		got := decode(t, raw, f)
		if len(got) != 0 {
			t.Fatalf("%s: empty corpus decoded to %d pages", f, len(got))
		}
	}
}

func TestCopy(t *testing.T) {
	pages := testPages(40)
	src := corpus.NewReader(bytes.NewReader(encode(t, pages, corpus.FormatColumnar)), corpus.FormatColumnar)
	var buf bytes.Buffer
	dst := corpus.NewWriter(&buf, corpus.FormatNDJSON)
	n, err := corpus.Copy(dst, src)
	if err != nil || n != len(pages) {
		t.Fatalf("Copy = %d, %v; want %d, nil", n, err, len(pages))
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), encode(t, pages, corpus.FormatNDJSON)) {
		t.Fatal("Copy transcode is not byte-identical to direct NDJSON")
	}
}

func TestDetectFormat(t *testing.T) {
	pages := testPages(3)
	for _, tc := range []struct {
		raw  []byte
		want corpus.Format
	}{
		{encode(t, pages, corpus.FormatColumnar), corpus.FormatColumnar},
		{encode(t, pages, corpus.FormatNDJSON), corpus.FormatNDJSON},
		{nil, corpus.FormatNDJSON}, // empty stream: NDJSON with zero pages
	} {
		br := bufio.NewReader(bytes.NewReader(tc.raw))
		got, err := corpus.DetectFormat(br)
		if err != nil || got != tc.want {
			t.Fatalf("DetectFormat = %q, %v; want %q", got, err, tc.want)
		}
		// Sniffing must not consume: the reader still decodes.
		if pages, err := corpus.ReadAll(corpus.NewReader(br, got)); err != nil || len(pages) != func() int {
			if tc.raw == nil {
				return 0
			}
			return 3
		}() {
			t.Fatalf("decode after sniff: %d pages, %v", len(pages), err)
		}
	}
}

func TestColumnarVersionMismatch(t *testing.T) {
	raw := encode(t, testPages(2), corpus.FormatColumnar)
	raw[6] = 99 // the version byte after "RCORP\x00"

	if _, err := corpus.DetectFormat(bufio.NewReader(bytes.NewReader(raw))); err == nil ||
		!strings.Contains(err.Error(), "version 99") {
		t.Fatalf("DetectFormat on version 99: err = %v, want version mismatch", err)
	}
	_, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(raw), corpus.FormatColumnar))
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("read on version 99: err = %v, want version mismatch", err)
	}
}

func TestColumnarTruncationDetected(t *testing.T) {
	raw := encode(t, testPages(10), corpus.FormatColumnar)
	for _, cut := range []int{len(raw) - 1, len(raw) / 2, 8} {
		_, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(raw[:cut]), corpus.FormatColumnar))
		if err == nil {
			t.Fatalf("truncation at %d of %d bytes passed silently", cut, len(raw))
		}
	}
	// A flipped trailer count must be caught too.
	raw2 := encode(t, nil, corpus.FormatColumnar)
	raw2[len(raw2)-1]++ // trailer total: 0 -> 1
	if _, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(raw2), corpus.FormatColumnar)); err == nil {
		t.Fatal("trailer page-count mismatch passed silently")
	}
}

// failWriter fails after n bytes — the full-disk stand-in.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, fmt.Errorf("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterSurfacesWriteErrors(t *testing.T) {
	pages := testPages(600)
	for _, f := range []corpus.Format{corpus.FormatNDJSON, corpus.FormatColumnar} {
		w := corpus.NewWriter(&failWriter{n: 4096}, f)
		var err error
		for _, p := range pages {
			if err = w.Write(p); err != nil {
				break
			}
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("%s: disk-full error was swallowed (err = %v)", f, err)
		}
	}
}

func TestColumnarWriteAfterClose(t *testing.T) {
	w := corpus.NewWriter(io.Discard, corpus.FormatColumnar)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(testPages(1)[0]); err == nil {
		t.Fatal("write after Close succeeded")
	}
}

// TestColumnarAllocBudget holds the codec's allocation shape: the
// writer allocates for its block buffers and string tables, not per
// page, and the reader allocates what a decoded page has to own — the
// page, its entry slice, and one string, one address slice and one SAN
// slice that every entry's text, answer set and SAN list are cut from —
// whether the page has two entries or a hundred: measured 5.8 and 5.4
// per page. (A string(b) for each entry's URL and host alone reads 205
// per page on the hundred-entry corpus.)
func TestColumnarAllocBudget(t *testing.T) {
	pages := testPages(2000)
	raw := encode(t, pages, corpus.FormatColumnar)
	enc := testing.AllocsPerRun(3, func() { encode(t, pages, corpus.FormatColumnar) })
	if enc > 200 {
		t.Errorf("encoding %d pages allocates %.0f times, want ≤ 200 (nothing per page)", len(pages), enc)
	}
	const perPageBudget = 8
	dec := testing.AllocsPerRun(3, func() { decode(t, raw, corpus.FormatColumnar) })
	if perPage := dec / float64(len(pages)); perPage > perPageBudget {
		t.Errorf("decoding allocates %.2f per page (%.0f over %d pages of 1–5 entries), want ≤ %d", perPage, dec, len(pages), perPageBudget)
	}
	wide := widePages(200, 100)
	rawWide := encode(t, wide, corpus.FormatColumnar)
	dec = testing.AllocsPerRun(3, func() { decode(t, rawWide, corpus.FormatColumnar) })
	if perPage := dec / float64(len(wide)); perPage > perPageBudget {
		t.Errorf("decoding allocates %.2f per page (%.0f over %d pages of 100 entries), want ≤ %d", perPage, dec, len(wide), perPageBudget)
	}
}

// Encoding one block cold allocates its four columns and little else:
// the columns grow by doubling, so the bytes allocated stay a small
// multiple of the bytes written. append's own ~1.25× step for large
// slices copies each column several more times and breaks this budget;
// the allocation counts above cannot see that waste. Warm, a second
// writer and a second reader of the same block grow no column: each
// borrows the set the one before gave back. The writer then allocates
// at most 1 % of the bytes it writes (measured: 240 bytes), and the
// reader, past what its pages keep, at most 5 % of the bytes it reads
// (measured: 3.5 %, its 64 KiB bufio buffer and per-page scratch; cold,
// 271 %).
func TestColumnarEncodeByteBudget(t *testing.T) {
	wide := widePages(200, 100) // one block, about 4.7 MB
	encodeBlock := func() (written int, alloc uint64) {
		var out countingWriter
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := corpus.NewWriter(&out, corpus.FormatColumnar)
		for _, p := range wide {
			if err := w.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return out.n, after.TotalAlloc - before.TotalAlloc
	}
	corpus.EmptyColumnStore()
	n, alloc := encodeBlock()
	if ratio := float64(alloc) / float64(n); ratio > 3 {
		t.Errorf("cold: encoding %d bytes allocated %d bytes (%.2f×), want ≤ 3×", n, alloc, ratio)
	}
	const writerShare, readerShare = 0.01, 0.05
	if n, alloc := encodeBlock(); float64(alloc) > writerShare*float64(n) {
		t.Errorf("warm: encoding %d bytes allocated %d bytes (%.2f %%), want ≤ %.0f %%", n, alloc, 100*float64(alloc)/float64(n), 100*writerShare)
	}

	// A reader's transient bytes are what it allocated less what the
	// pages it hands out keep alive.
	raw := encode(t, wide, corpus.FormatColumnar)
	decodeBlock := func() (transient int64) {
		var before, after, kept, dropped runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pages := decode(t, raw, corpus.FormatColumnar)
		runtime.ReadMemStats(&after)
		runtime.GC()
		runtime.ReadMemStats(&kept)
		runtime.KeepAlive(pages)
		pages = nil
		runtime.GC()
		runtime.ReadMemStats(&dropped)
		return int64(after.TotalAlloc-before.TotalAlloc) - (int64(kept.HeapAlloc) - int64(dropped.HeapAlloc))
	}
	corpus.EmptyColumnStore()
	if cold := decodeBlock(); cold < int64(len(raw)) {
		t.Errorf("cold: decoding %d bytes left %d transient bytes, fewer than its columns hold", len(raw), cold)
	}
	if warm := decodeBlock(); float64(warm) > readerShare*float64(len(raw)) {
		t.Errorf("warm: decoding %d bytes allocated %d bytes beyond its pages (%.2f %%), want ≤ %.0f %%", len(raw), warm, 100*float64(warm)/float64(len(raw)), 100*readerShare)
	}
}

// The column store holds at most KeepSets sets and no column above
// KeepColumnBytes, however many codecs give sets back and however large
// a valid stream's column grew.
func TestColumnStoreBounds(t *testing.T) {
	corpus.EmptyColumnStore()
	page := testPages(1)[0]
	var open []corpus.Writer
	for i := 0; i < corpus.KeepSets+3; i++ {
		w := corpus.NewWriter(io.Discard, corpus.FormatColumnar)
		if err := w.Write(page); err != nil {
			t.Fatal(err)
		}
		open = append(open, w)
	}
	for _, w := range open {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if sets, _ := corpus.ColumnStoreHolds(); sets != corpus.KeepSets {
		t.Fatalf("%d writers closed: the store holds %d sets, want the cap, %d", len(open), sets, corpus.KeepSets)
	}

	// One page whose URL alone outgrows the keep cap: its meta column is
	// dropped, writer's and reader's alike, and the other three kept.
	corpus.EmptyColumnStore()
	huge := *page
	huge.URL = "https://www.site-1.example/" + strings.Repeat("a", corpus.KeepColumnBytes)
	raw := encode(t, []*har.Page{&huge}, corpus.FormatColumnar)
	if sets, largest := corpus.ColumnStoreHolds(); sets != 1 || largest > corpus.KeepColumnBytes {
		t.Fatalf("after the writer: %d sets, largest column %d bytes; want 1 set, no column above %d", sets, largest, corpus.KeepColumnBytes)
	}
	got := decode(t, raw, corpus.FormatColumnar)
	if len(got) != 1 || !reflect.DeepEqual(got[0], &huge) {
		t.Fatal("the oversize page does not round-trip")
	}
	if sets, largest := corpus.ColumnStoreHolds(); sets != 1 || largest > corpus.KeepColumnBytes {
		t.Fatalf("after the reader: %d sets, largest column %d bytes; want 1 set, no column above %d", sets, largest, corpus.KeepColumnBytes)
	}
}

// Codecs on many goroutines share the store: each of 8 round-trips a
// corpus of its own, three times over, and decodes exactly its own
// pages. Under -race this holds the store's hand-offs to its mutex.
func TestColumnStoreConcurrentRoundTrips(t *testing.T) {
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			pages := widePages(20+g, 5+g)
			for round := 0; round < 3; round++ {
				var buf bytes.Buffer
				w := corpus.NewWriter(&buf, corpus.FormatColumnar)
				for _, p := range pages {
					if err := w.Write(p); err != nil {
						errs <- err
						return
					}
				}
				if err := w.Close(); err != nil {
					errs <- err
					return
				}
				got, err := corpus.ReadAll(corpus.NewReader(&buf, corpus.FormatColumnar))
				if err == nil && !reflect.DeepEqual(got, pages) {
					err = fmt.Errorf("goroutine %d, round %d: decoded pages differ from its corpus", g, round)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if sets, largest := corpus.ColumnStoreHolds(); sets > corpus.KeepSets || largest > corpus.KeepColumnBytes {
		t.Fatalf("the store holds %d sets, largest column %d bytes; caps %d and %d", sets, largest, corpus.KeepSets, corpus.KeepColumnBytes)
	}
}

// countingWriter counts and drops what is written to it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// widePages builds n pages of m entries each, every entry with its own
// URL, host, answer set and SAN list.
func widePages(n, m int) []*har.Page {
	var out []*har.Page
	for r := 1; r <= n; r++ {
		p := &har.Page{URL: fmt.Sprintf("https://wide-%d.example/", r), Host: fmt.Sprintf("wide-%d.example", r), Rank: r}
		for i := 0; i < m; i++ {
			host := fmt.Sprintf("h%d.wide-%d.example", i, r)
			p.Entries = append(p.Entries, har.Entry{
				URL: fmt.Sprintf("https://%s/r/%d.js", host, i), Host: host, Method: "GET", Protocol: "h2",
				Status: 200, MimeType: "text/css", Secure: true, NewDNS: true, NewTLS: true,
				ServerIP:   netip.AddrFrom4([4]byte{10, byte(r), byte(i), 1}),
				DNSAnswer:  []netip.Addr{netip.AddrFrom4([4]byte{10, byte(r), byte(i), 1}), netip.AddrFrom4([4]byte{10, byte(r), byte(i), 2})},
				CertSANs:   []string{host, "alt1." + host, "*." + host},
				CertIssuer: "Issuer", Initiator: i - 1, Timings: har.Timings{DNS: 1, Wait: float64(i)},
			})
		}
		out = append(out, p)
	}
	return out
}

// A decoded page is cut from storage of its own: it must read the same
// after the reader has moved on through later pages and blocks (reusing
// its column buffers and scratch), and after another corpus has been
// encoded and decoded on the columns the reader gave back, as the page
// that was encoded. Every way a codec ends gives its columns back to
// the store exactly once: the two codecs opened next never share a
// backing array.
func TestColumnarPagesSurviveReader(t *testing.T) {
	pages := append(testPages(600), widePages(3, 40)...) // three blocks
	raw := encode(t, pages, corpus.FormatColumnar)
	r := corpus.NewReader(bytes.NewReader(raw), corpus.FormatColumnar)
	first, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	kept := []*har.Page{first}
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, p)
	}
	if len(kept) != len(pages) {
		t.Fatalf("decoded %d pages, want %d", len(kept), len(pages))
	}
	// The reader's set went back at the end marker: the next writer
	// fills it with different bytes, and the next reader reads them in.
	other := widePages(100, 7) // one block
	if got := decode(t, encode(t, other, corpus.FormatColumnar), corpus.FormatColumnar); !reflect.DeepEqual(got, other) {
		t.Fatal("a corpus round-tripped on recycled columns decodes differently")
	}
	for i := range pages {
		if !reflect.DeepEqual(kept[i], pages[i]) {
			t.Fatalf("page %d changed after the reader read on:\n got %+v\nwant %+v", i, kept[i], pages[i])
		}
	}

	read := func(n int) corpus.Reader {
		r := corpus.NewReader(bytes.NewReader(raw), corpus.FormatColumnar)
		for i := 0; i < n; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	for _, tc := range []struct {
		name string
		end  func()
	}{
		{"reader Close after EOF", func() {
			r := read(len(pages))
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("Next after the last page: %v, want io.EOF", err)
			}
			r.Close()
		}},
		{"reader Close twice", func() {
			r := read(len(pages))
			r.Close()
			r.Close()
		}},
		{"reader Close in mid-block", func() {
			r := read(10)
			r.Close()
			if p, err := r.Next(); err == nil {
				t.Fatalf("Next after Close decoded rank %d from columns it gave back", p.Rank)
			}
		}},
		{"writer Close after a write error", func() {
			w := corpus.NewWriter(&failWriter{n: 4096}, corpus.FormatColumnar)
			var err error
			for _, p := range pages {
				if err = w.Write(p); err != nil {
					break
				}
			}
			if err == nil {
				t.Fatal("writer into a full disk never failed")
			}
			if err := w.Close(); err == nil {
				t.Fatal("Close after a write error succeeded")
			}
			w.Close()
		}},
	} {
		corpus.EmptyColumnStore()
		tc.end()
		if sets, _ := corpus.ColumnStoreHolds(); sets != 1 {
			t.Fatalf("%s: the store holds %d sets, want the codec's one", tc.name, sets)
		}
		w := corpus.NewWriter(io.Discard, corpus.FormatColumnar)
		if err := w.Write(pages[0]); err != nil {
			t.Fatal(err)
		}
		r := read(1)
		seen := map[*byte]string{}
		for codec, arrays := range map[string][]*byte{"writer": corpus.ColumnArrays(w), "reader": corpus.ColumnArrays(r)} {
			for _, a := range arrays {
				if other, ok := seen[a]; ok {
					t.Fatalf("%s: the next %s and %s share a column's backing array", tc.name, other, codec)
				}
				seen[a] = codec
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
}

// A block whose columns are not consumed exactly is corrupt, and the
// error names the first such column in file order — every time, not
// whichever a map iteration happens to reach.
func TestColumnarUnconsumedColumnNamedInOrder(t *testing.T) {
	raw := encode(t, testPages(1), corpus.FormatColumnar)
	// magic, then one block: npages, four column lengths, four columns.
	const magicLen = 7
	rest := raw[magicLen:]
	npages, n := binary.Uvarint(rest)
	rest = rest[n:]
	var lens [4]uint64
	for i := range lens {
		lens[i], n = binary.Uvarint(rest)
		rest = rest[n:]
	}
	var cols [4][]byte
	for i := range cols {
		cols[i], rest = rest[:lens[i]], rest[lens[i]:]
	}
	build := func(pad ...int) []byte {
		out := append([]byte(nil), raw[:magicLen]...)
		out = binary.AppendUvarint(out, npages)
		padded := cols
		for _, i := range pad {
			padded[i] = append(append([]byte(nil), cols[i]...), 0)
		}
		for _, c := range padded {
			out = binary.AppendUvarint(out, uint64(len(c)))
		}
		for _, c := range padded {
			out = append(out, c...)
		}
		return append(out, rest...)
	}
	for _, tc := range []struct {
		pad  []int
		want string
	}{
		{[]int{2, 3}, "dns column"},
		{[]int{1, 3}, "entries column"},
		{[]int{0, 1, 2, 3}, "meta column"},
		{[]int{3}, "sans column"},
	} {
		for try := 0; try < 40; try++ {
			_, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(build(tc.pad...)), corpus.FormatColumnar))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("padded columns %v: err = %v, want it to name the %s", tc.pad, err, tc.want)
			}
		}
	}
	if _, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(build()), corpus.FormatColumnar)); err != nil {
		t.Fatalf("rebuilt block without padding: %v", err)
	}
}
