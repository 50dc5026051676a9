package corpus_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"reflect"
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
// page, and the reader allocates what a decoded page has to own (the
// page, its entry slice, and per entry its strings and address and SAN
// slices) and nothing per column or per block beyond that.
func TestColumnarAllocBudget(t *testing.T) {
	pages := testPages(2000)
	entries := 0
	for _, p := range pages {
		entries += len(p.Entries)
	}
	raw := encode(t, pages, corpus.FormatColumnar)
	enc := testing.AllocsPerRun(3, func() { encode(t, pages, corpus.FormatColumnar) })
	if enc > 200 {
		t.Errorf("encoding %d pages allocates %.0f times, want ≤ 200 (nothing per page)", len(pages), enc)
	}
	dec := testing.AllocsPerRun(3, func() { decode(t, raw, corpus.FormatColumnar) })
	if perEntry := dec / float64(entries); perEntry > 5.5 {
		t.Errorf("decoding allocates %.2f per entry (%.0f over %d entries), want ≤ 5.5", perEntry, dec, entries)
	}
}
