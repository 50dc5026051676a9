package hpack

// A Decoder reads HPACK header blocks. It maintains the decoder-side
// dynamic table and enforces the RFC default SETTINGS_HEADER_TABLE_SIZE
// of 4096 bytes, the only value an endpoint here advertises, as the
// limit on dynamic table size updates. Every decoded name and value is
// bounded by defaultMaxStringLength.
//
// A Decoder is not safe for concurrent use.
type Decoder struct {
	dt *dynamicTable

	// scratch is the reusable Huffman decode buffer: string literals
	// decode into it before the single string materialization, so
	// steady-state decoding allocates once per header string instead of
	// once per buffer growth step.
	scratch []byte
}

// NewDecoder returns a Decoder whose dynamic table capacity and update
// limit are the RFC default of 4096 bytes.
func NewDecoder() *Decoder {
	return &Decoder{dt: newDynamicTable(defaultDynamicTableSize)}
}

// DecodeFull decodes a complete header block and returns its fields in
// a new slice the caller owns. Any error is a COMPRESSION_ERROR at the
// HTTP/2 layer.
func (d *Decoder) DecodeFull(block []byte) ([]HeaderField, error) { return d.AppendDecode(nil, block) }

// AppendDecode decodes a complete header block, appends its fields to
// dst and returns the extended slice, so a caller that decodes block
// after block can reuse one slice's storage. On error it returns dst
// unextended; the elements past len(dst) may have been overwritten.
// Any error is a COMPRESSION_ERROR at the HTTP/2 layer.
func (d *Decoder) AppendDecode(dst []HeaderField, block []byte) ([]HeaderField, error) {
	fields := dst
	seenField := false
	for len(block) > 0 {
		b := block[0]
		switch {
		case b&0x80 != 0: // §6.1 indexed
			i, rest, err := readVarInt(block, 7)
			if err != nil {
				return dst, err
			}
			f, ok := lookup(d.dt, i)
			if !ok {
				return dst, errInvalidIndex
			}
			fields = append(fields, f)
			block = rest
			seenField = true

		case b&0xc0 == 0x40: // §6.2.1 literal with incremental indexing
			f, rest, err := d.readLiteral(block, 6)
			if err != nil {
				return dst, err
			}
			d.dt.add(f)
			fields = append(fields, f)
			block = rest
			seenField = true

		case b&0xe0 == 0x20: // §6.3 dynamic table size update
			if seenField {
				// Updates must precede all fields in a block (§4.2).
				return dst, errTableSizeUpdate
			}
			n, rest, err := readVarInt(block, 5)
			if err != nil {
				return dst, err
			}
			if n > defaultDynamicTableSize {
				return dst, errTableSizeUpdate
			}
			d.dt.setMaxSize(uint32(n))
			block = rest

		default: // §6.2.2 / §6.2.3 literal without indexing / never indexed
			sensitive := b&0xf0 == 0x10
			f, rest, err := d.readLiteral(block, 4)
			if err != nil {
				return dst, err
			}
			f.Sensitive = sensitive
			fields = append(fields, f)
			block = rest
			seenField = true
		}
	}
	return fields, nil
}

// readLiteral reads a literal field whose name-index prefix is n bits.
func (d *Decoder) readLiteral(block []byte, n uint8) (HeaderField, []byte, error) {
	idx, rest, err := readVarInt(block, n)
	if err != nil {
		return HeaderField{}, nil, err
	}
	var f HeaderField
	if idx != 0 {
		ref, ok := lookup(d.dt, idx)
		if !ok {
			return HeaderField{}, nil, errInvalidIndex
		}
		f.Name = ref.Name
	} else {
		f.Name, rest, d.scratch, err = readString(rest, d.scratch)
		if err != nil {
			return HeaderField{}, nil, err
		}
	}
	f.Value, rest, d.scratch, err = readString(rest, d.scratch)
	if err != nil {
		return HeaderField{}, nil, err
	}
	return f, rest, nil
}
