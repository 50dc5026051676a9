package h2

import (
	"strings"

	"respectorigin/internal/hpack"
)

// metaHeadersFrame is a HEADERS frame plus all of its CONTINUATIONs,
// with the header block decoded. The connection's headerReader owns it:
// the frame, its HeadersFrame and its Fields are valid only until the
// next header block on that connection, so anything kept past that is
// copied out first (a Request's or Response's Header is).
type metaHeadersFrame struct {
	*HeadersFrame
	Fields []hpack.HeaderField
}

// pseudoValue returns the value of the given pseudo-header (":method",
// ":path", ...) or "".
func (f *metaHeadersFrame) pseudoValue(name string) string {
	for _, hf := range f.Fields {
		if !strings.HasPrefix(hf.Name, ":") {
			break
		}
		if hf.Name[1:] == name {
			return hf.Value
		}
	}
	return ""
}

// regularFields returns the non-pseudo header fields.
func (f *metaHeadersFrame) regularFields() []hpack.HeaderField {
	for i, hf := range f.Fields {
		if !strings.HasPrefix(hf.Name, ":") {
			return f.Fields[i:]
		}
	}
	return nil
}

// validPseudoHeaders enumerates the request and response pseudo-headers
// from RFC 9113 §8.3.
var validPseudoHeaders = map[string]bool{
	":method":    true,
	":scheme":    true,
	":authority": true,
	":path":      true,
	":status":    true,
}

// checkHeaderBlock enforces the RFC 9113 §8.2 field validity rules that
// make a request or response malformed: pseudo-headers after regular
// fields, unknown pseudo-headers, uppercase field names, and
// connection-specific fields.
func checkHeaderBlock(fields []hpack.HeaderField) error {
	sawRegular := false
	for _, f := range fields {
		if strings.HasPrefix(f.Name, ":") {
			if sawRegular {
				return streamError(0, errCodeProtocol, "pseudo-header after regular header")
			}
			if !validPseudoHeaders[f.Name] {
				return streamError(0, errCodeProtocol, "unknown pseudo-header "+f.Name)
			}
			continue
		}
		sawRegular = true
		if f.Name == "" {
			return streamError(0, errCodeProtocol, "empty header name")
		}
		if f.Name != strings.ToLower(f.Name) {
			return streamError(0, errCodeProtocol, "uppercase header name "+f.Name)
		}
		switch f.Name {
		case "connection", "proxy-connection", "keep-alive", "transfer-encoding", "upgrade":
			return streamError(0, errCodeProtocol, "connection-specific header "+f.Name)
		case "te":
			if f.Value != "trailers" {
				return streamError(0, errCodeProtocol, "te header must be 'trailers'")
			}
		}
	}
	return nil
}

// headerWriter serializes a header field list into HEADERS plus
// CONTINUATION frames no larger than maxFrameSize, the peer's limit. It
// must be called with the connection's header-encode mutex held so that
// HPACK state and frame interleaving stay consistent.
type headerWriter struct {
	fr  *Framer
	enc *hpack.Encoder
	buf []byte
}

func (hw *headerWriter) writeHeaders(streamID uint32, fields []hpack.HeaderField, endStream bool, maxFrameSize uint32) error {
	hw.buf = hw.enc.AppendHeaderBlock(hw.buf[:0], fields)
	block := hw.buf
	max := int(maxFrameSize)
	first := true
	for {
		frag := block
		if len(frag) > max {
			frag = frag[:max]
		}
		block = block[len(frag):]
		end := len(block) == 0
		var err error
		if first {
			err = hw.fr.writeHeadersFrame(headersFrameParam{
				StreamID:      streamID,
				BlockFragment: frag,
				EndStream:     endStream,
				EndHeaders:    end,
			})
			first = false
		} else {
			err = hw.fr.writeContinuation(streamID, end, frag)
		}
		if err != nil {
			return err
		}
		if end {
			return nil
		}
	}
}

// defaultMaxHeaderBlockSize bounds an assembled header block. An
// endpoint streaming unbounded CONTINUATION frames (the "CONTINUATION
// flood") is cut off with ENHANCE_YOUR_CALM once the block passes this.
const defaultMaxHeaderBlockSize = 1 << 20

// keptFields bounds the decoded-field storage a headerReader keeps
// between blocks. A block with more fields (one the block-size cap still
// admits) is handed over in storage and a frame the reader does not keep,
// so one outsized block cannot pin megabytes of fields to the connection.
const keptFields = 256

// headerReader accumulates HEADERS + CONTINUATION frames into a
// metaHeadersFrame using the connection's HPACK decoder. It owns one
// HeadersFrame, one metaHeadersFrame and one field slice, reused for
// every block: a returned *metaHeadersFrame is valid until the next
// block completes.
type headerReader struct {
	dec *hpack.Decoder

	// maxBlockSize caps the assembled block; 0 means the default.
	maxBlockSize int

	// pending is the HEADERS frame whose block is being continued.
	pending *HeadersFrame
	frag    []byte

	hf     HeadersFrame
	meta   metaHeadersFrame
	fields []hpack.HeaderField
}

func (hr *headerReader) limit() int {
	if hr.maxBlockSize > 0 {
		return hr.maxBlockSize
	}
	return defaultMaxHeaderBlockSize
}

// expectingContinuation reports whether the next frame must be a
// CONTINUATION for the pending stream.
func (hr *headerReader) expectingContinuation() bool { return hr.pending != nil }

// onHeaders ingests a HEADERS frame. If the block is complete it returns
// the decoded meta frame; otherwise it returns nil and waits for
// CONTINUATIONs.
func (hr *headerReader) onHeaders(f *HeadersFrame) (*metaHeadersFrame, error) {
	if hr.pending != nil {
		return nil, connError(errCodeProtocol, "HEADERS while expecting CONTINUATION")
	}
	if len(f.BlockFragment) > hr.limit() {
		return nil, connError(errCodeEnhanceYourCalm, "header block too large")
	}
	// The incoming frame aliases the framer's read buffer (and may be the
	// framer's cached frame struct), so anything that survives this call
	// goes into the reader's own frame — but only the header fields, never
	// the raw fragment: a complete block is decoded right here, before the
	// next ReadFrame can clobber it.
	hr.hf = HeadersFrame{FrameHeader: f.FrameHeader, Priority: f.Priority}
	if f.endHeaders() {
		return hr.decode(f.BlockFragment)
	}
	hr.pending = &hr.hf
	hr.frag = append(hr.frag[:0], f.BlockFragment...)
	return nil, nil
}

// onContinuation ingests a CONTINUATION frame, returning the decoded
// meta frame once END_HEADERS arrives.
func (hr *headerReader) onContinuation(f *continuationFrame) (*metaHeadersFrame, error) {
	if hr.pending == nil {
		return nil, connError(errCodeProtocol, "CONTINUATION without HEADERS")
	}
	if f.StreamID != hr.pending.StreamID {
		return nil, connError(errCodeProtocol, "CONTINUATION on wrong stream")
	}
	if len(hr.frag)+len(f.BlockFragment) > hr.limit() {
		hr.pending = nil
		return nil, connError(errCodeEnhanceYourCalm, "header block too large")
	}
	hr.frag = append(hr.frag, f.BlockFragment...)
	if !f.endHeaders() {
		return nil, nil
	}
	hr.pending = nil
	return hr.decode(hr.frag)
}

// decode decodes the block of hr.hf into the reader's field storage.
func (hr *headerReader) decode(block []byte) (*metaHeadersFrame, error) {
	fields, err := hr.dec.AppendDecode(hr.fields[:0], block)
	meta := &hr.meta
	if cap(fields) > keptFields {
		// An outsized block is handed over in a frame of its own, so
		// neither the reader's storage nor its meta frame points at it.
		clear(hr.fields[:cap(hr.fields)])
		hr.meta = metaHeadersFrame{}
		meta = new(metaHeadersFrame)
	} else {
		// Slots past this block's fields hold the previous block's.
		clear(fields[len(fields):cap(fields)])
		hr.fields = fields
	}
	if err != nil {
		return nil, connError(errCodeCompression, err.Error())
	}
	if err := checkHeaderBlock(fields); err != nil {
		se := err.(streamErr)
		se.StreamID = hr.hf.StreamID
		return nil, se
	}
	// RFC 9113 §5.3.1: a stream cannot depend on itself. The check waits
	// for the block to decode so the HPACK state stays in step.
	if hr.hf.Flags.has(flagPriority) && hr.hf.Priority.StreamDep == hr.hf.StreamID {
		return nil, streamError(hr.hf.StreamID, errCodeProtocol, "HEADERS depends on its own stream")
	}
	*meta = metaHeadersFrame{HeadersFrame: &hr.hf, Fields: fields}
	return meta, nil
}
