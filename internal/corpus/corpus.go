// Package corpus is the unified corpus I/O surface: every producer and
// consumer of page corpora — cmd/crawl, cmd/report, the determinism
// harness, the benchmark suites — reads and writes through the Reader
// and Writer interfaces defined here rather than concrete NDJSON
// streams or *har.Page slices.
//
// Two interchangeable encodings implement the interfaces:
//
//   - NDJSON: one JSON page per line, byte-identical to the historical
//     cmd/crawl output (the golden byte-identity gates diff it).
//   - Columnar: a compact binary format with length-prefixed column
//     blocks — page fields, entries, DNS answers and certificate SANs
//     as separate streams — that decodes several times faster with a
//     fraction of the allocations, sized for 10M-page corpora.
//
// A corpus may be split across per-shard files described by a
// merge-safe manifest (manifest.go), so crawl and report can run as
// independent OS processes over disjoint rank ranges and merge without
// materializing intermediates. The two formats are interchangeable by
// construction: decoding a columnar corpus and re-encoding it as
// NDJSON reproduces the direct NDJSON bytes exactly, a property the
// conformance harness and CI hold at worker counts 1/4/16.
package corpus

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"respectorigin/internal/har"
)

// Writer appends pages to a corpus. Close finalizes the stream (end
// markers, buffered bytes) and must be checked: on a full disk the
// final flush is where the error surfaces, and ignoring it truncates
// the corpus silently.
type Writer interface {
	Write(p *har.Page) error
	Close() error
}

// Reader streams pages from a corpus in rank order. Next returns
// io.EOF after the last page; Close releases any underlying files.
type Reader interface {
	Next() (*har.Page, error)
	Close() error
}

// Format identifies a corpus encoding.
type Format string

// The two supported encodings (the -format flag values).
const (
	FormatNDJSON   Format = "ndjson"
	FormatColumnar Format = "columnar"
)

// ParseFormat parses a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatNDJSON, FormatColumnar:
		return Format(s), nil
	}
	return "", fmt.Errorf("corpus: unknown format %q (want %q or %q)", s, FormatNDJSON, FormatColumnar)
}

// Version returns the current encoding version of the format, the
// value recorded in shard manifests.
func (f Format) Version() int {
	switch f {
	case FormatColumnar:
		return columnarVersion
	default:
		return 1
	}
}

// NewWriter returns a Writer emitting pages to w in the given format.
// The Writer does not buffer beyond what the format requires and does
// not close w; wrap files in a bufio.Writer (or use CreateShard, which
// owns buffering, hashing and the file).
func NewWriter(w io.Writer, f Format) Writer {
	if f == FormatColumnar {
		return newColumnarWriter(w)
	}
	return newNDJSONWriter(w)
}

// NewReader returns a Reader decoding pages from r in the given format.
func NewReader(r io.Reader, f Format) Reader {
	if f == FormatColumnar {
		return newColumnarReader(r)
	}
	return newNDJSONReader(r)
}

// ReadAll drains a Reader into a page slice.
func ReadAll(r Reader) ([]*har.Page, error) {
	var out []*har.Page
	for {
		p, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// Copy streams every page from src into dst and returns the page
// count. It closes neither side: callers own Close (and must check
// dst's).
func Copy(dst Writer, src Reader) (int, error) {
	n := 0
	for {
		p, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := dst.Write(p); err != nil {
			return n, err
		}
		n++
	}
}

// detectFormat sniffs the encoding of a corpus stream from its leading
// bytes without consuming them. A columnar magic prefix with an
// unsupported version is an error rather than a silent NDJSON
// fallback.
func detectFormat(br *bufio.Reader) (Format, error) {
	head, err := br.Peek(len(columnarMagic))
	if err != nil && len(head) == 0 && err != io.EOF {
		return "", err
	}
	if len(head) >= len(columnarMagicPrefix) && string(head[:len(columnarMagicPrefix)]) == columnarMagicPrefix {
		if len(head) < len(columnarMagic) || head[len(columnarMagic)-1] != columnarVersion {
			got := -1
			if len(head) >= len(columnarMagic) {
				got = int(head[len(columnarMagic)-1])
			}
			return "", fmt.Errorf("corpus: columnar format version %d not supported (this build reads version %d)", got, columnarVersion)
		}
		return FormatColumnar, nil
	}
	return FormatNDJSON, nil
}

// fileReader is an Open result: a format reader plus the file it owns.
type fileReader struct {
	Reader
	f *os.File
}

func (fr *fileReader) Close() error {
	err := fr.Reader.Close()
	if cerr := fr.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open opens a single-file corpus, sniffing the encoding from its
// magic bytes, so callers need not know how a corpus was written.
// The returned Reader owns the file.
func Open(path string) (Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	format, err := detectFormat(br)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &fileReader{Reader: NewReader(br, format), f: f}, nil
}
