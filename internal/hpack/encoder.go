package hpack

// An Encoder writes header blocks in HPACK form. It maintains the
// encoder-side dynamic table and emits dynamic table size updates when
// its capacity is lowered by the peer's SETTINGS_HEADER_TABLE_SIZE.
//
// An Encoder is not safe for concurrent use; HTTP/2 serializes header
// block emission per connection, which matches this constraint.
type Encoder struct {
	dt *dynamicTable

	// useHuffman controls whether string literals are Huffman-coded
	// when that shortens them.
	useHuffman bool

	// minSize tracks the smallest capacity seen since the last emitted
	// size update; tableSizeUpdate marks that updates must be emitted at
	// the start of the next header block (RFC 7541 §4.2).
	minSize         uint32
	pendingCapacity uint32
	tableSizeUpdate bool
}

// NewEncoder returns an Encoder with the default 4096-byte dynamic table
// and Huffman coding enabled.
func NewEncoder() *Encoder {
	return &Encoder{
		dt:         newDynamicTable(defaultDynamicTableSize),
		useHuffman: true,
		// minSize tracks the lowest capacity since the last emitted
		// update. Starting it at the current capacity (not zero) keeps a
		// capacity *increase* from emitting a spurious shrink-to-zero
		// update that would flush the peer decoder's dynamic table.
		minSize: defaultDynamicTableSize,
	}
}

// SetHuffman toggles Huffman coding of string literals. Disabling it is
// always interoperable: the H bit is simply left clear.
func (e *Encoder) SetHuffman(on bool) { e.useHuffman = on }

// SetMaxDynamicTableSize schedules the encoder's dynamic table capacity
// change to n, to be signalled at the start of the next header block.
func (e *Encoder) SetMaxDynamicTableSize(n uint32) {
	if n < e.minSize {
		e.minSize = n
	}
	e.pendingCapacity = n
	e.tableSizeUpdate = true
}

// appendField appends the HPACK representation of f to dst.
//
// Representation choice follows the usual policy: indexed when an exact
// match exists; literal-with-incremental-indexing otherwise, unless the
// field is Sensitive (never-indexed) or too large to be worth indexing.
func (e *Encoder) appendField(dst []byte, f HeaderField) []byte {
	dst = e.flushTableSizeUpdates(dst)

	k := tableKey{f.Name, f.Value}
	if !f.Sensitive {
		if i, ok := staticIndex[k]; ok {
			return appendVarInt(dst, 7, 0x80, i)
		}
		if di, _ := e.dt.search(f); di != 0 {
			return appendVarInt(dst, 7, 0x80, uint64(staticTableLen)+di)
		}
	}

	nameIdx := uint64(0)
	if i, ok := staticNameIndex[f.Name]; ok {
		nameIdx = i
	} else if _, ni := e.dt.search(f); ni != 0 {
		nameIdx = uint64(staticTableLen) + ni
	}

	switch {
	case f.Sensitive:
		// Literal never indexed (§6.2.3): 0001xxxx.
		dst = appendVarInt(dst, 4, 0x10, nameIdx)
	case f.size() > e.dt.maxSize:
		// Literal without indexing (§6.2.2): 0000xxxx.
		dst = appendVarInt(dst, 4, 0, nameIdx)
	default:
		// Literal with incremental indexing (§6.2.1): 01xxxxxx.
		dst = appendVarInt(dst, 6, 0x40, nameIdx)
		e.dt.add(f)
	}
	if nameIdx == 0 {
		dst = appendString(dst, f.Name, e.useHuffman)
	}
	return appendString(dst, f.Value, e.useHuffman)
}

// AppendHeaderBlock encodes all fields into a single header block.
func (e *Encoder) AppendHeaderBlock(dst []byte, fields []HeaderField) []byte {
	for _, f := range fields {
		dst = e.appendField(dst, f)
	}
	return dst
}

// flushTableSizeUpdates emits pending §6.3 dynamic table size updates.
// When the capacity dipped below the final value, two updates are
// emitted (the minimum then the final), per §4.2.
func (e *Encoder) flushTableSizeUpdates(dst []byte) []byte {
	if !e.tableSizeUpdate {
		return dst
	}
	if e.minSize < e.pendingCapacity {
		dst = appendVarInt(dst, 5, 0x20, uint64(e.minSize))
	}
	dst = appendVarInt(dst, 5, 0x20, uint64(e.pendingCapacity))
	e.dt.setMaxSize(e.pendingCapacity)
	e.minSize = e.pendingCapacity
	e.tableSizeUpdate = false
	return dst
}
