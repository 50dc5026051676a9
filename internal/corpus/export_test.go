package corpus

// Test hooks into the column store (columnar.go).

const (
	KeepSets        = keepSets
	KeepColumnBytes = keepColumnBytes
)

// EmptyColumnStore drops every set the store holds, so the next codecs
// start cold.
func EmptyColumnStore() {
	columns.mu.Lock()
	defer columns.mu.Unlock()
	columns.n, columns.sets = 0, [keepSets]colSet{}
}

// ColumnStoreHolds reports how many sets the store holds and the
// largest capacity among their columns.
func ColumnStoreHolds() (sets, largest int) {
	columns.mu.Lock()
	defer columns.mu.Unlock()
	for _, set := range columns.sets[:columns.n] {
		for _, c := range set {
			largest = max(largest, cap(c))
		}
	}
	return columns.n, largest
}

// ColumnArrays returns the first byte of the backing array of every
// column a columnar writer or reader holds now: two codecs that share
// one have the same pointer in their lists.
func ColumnArrays(codec any) []*byte {
	var set colSet
	switch c := codec.(type) {
	case *columnarWriter:
		for i := range c.cols {
			set[i] = c.cols[i].b
		}
	case *columnarReader:
		set = c.bufs
	default:
		panic("corpus: ColumnArrays of a codec that is not columnar")
	}
	var out []*byte
	for _, b := range set {
		if cap(b) > 0 {
			out = append(out, &b[:1][0])
		}
	}
	return out
}

// The manifest and sniffing halves that OpenManifest and Open run.
var (
	DetectFormat = detectFormat
	Merge        = mergeManifests
	ReadManifest = readManifest
)
