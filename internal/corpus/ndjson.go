package corpus

import (
	"encoding/json"
	"io"

	"respectorigin/internal/har"
)

// ndjsonWriter emits one JSON page per line: json.Encoder's compact
// encoding plus its trailing newline, the exact bytes the golden
// byte-identity gates were recorded against.
type ndjsonWriter struct {
	enc *json.Encoder
}

// newNDJSONWriter returns a Writer encoding pages as newline-delimited
// JSON to w. Close is a no-op (the encoding has no trailer); file
// flushing belongs to whoever owns the file.
func newNDJSONWriter(w io.Writer) Writer {
	return &ndjsonWriter{enc: json.NewEncoder(w)}
}

func (n *ndjsonWriter) Write(p *har.Page) error { return n.enc.Encode(p) }
func (n *ndjsonWriter) Close() error            { return nil }

// ndjsonReader streams pages out of a newline-delimited JSON corpus.
type ndjsonReader struct {
	dec *json.Decoder
}

// newNDJSONReader returns a Reader decoding newline-delimited JSON
// pages from r.
func newNDJSONReader(r io.Reader) Reader {
	return &ndjsonReader{dec: json.NewDecoder(r)}
}

func (n *ndjsonReader) Next() (*har.Page, error) {
	var p har.Page
	if err := n.dec.Decode(&p); err != nil {
		return nil, err // io.EOF passes through at end of stream
	}
	return &p, nil
}

func (n *ndjsonReader) Close() error { return nil }
