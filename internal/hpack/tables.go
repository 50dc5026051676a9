package hpack

// staticTable is the RFC 7541 Appendix A static table. Index 0 is unused;
// entries occupy indices 1..61.
var staticTable = [...]HeaderField{
	{},
	{Name: ":authority"},
	{Name: ":method", Value: "GET"},
	{Name: ":method", Value: "POST"},
	{Name: ":path", Value: "/"},
	{Name: ":path", Value: "/index.html"},
	{Name: ":scheme", Value: "http"},
	{Name: ":scheme", Value: "https"},
	{Name: ":status", Value: "200"},
	{Name: ":status", Value: "204"},
	{Name: ":status", Value: "206"},
	{Name: ":status", Value: "304"},
	{Name: ":status", Value: "400"},
	{Name: ":status", Value: "404"},
	{Name: ":status", Value: "500"},
	{Name: "accept-charset"},
	{Name: "accept-encoding", Value: "gzip, deflate"},
	{Name: "accept-language"},
	{Name: "accept-ranges"},
	{Name: "accept"},
	{Name: "access-control-allow-origin"},
	{Name: "age"},
	{Name: "allow"},
	{Name: "authorization"},
	{Name: "cache-control"},
	{Name: "content-disposition"},
	{Name: "content-encoding"},
	{Name: "content-language"},
	{Name: "content-length"},
	{Name: "content-location"},
	{Name: "content-range"},
	{Name: "content-type"},
	{Name: "cookie"},
	{Name: "date"},
	{Name: "etag"},
	{Name: "expect"},
	{Name: "expires"},
	{Name: "from"},
	{Name: "host"},
	{Name: "if-match"},
	{Name: "if-modified-since"},
	{Name: "if-none-match"},
	{Name: "if-range"},
	{Name: "if-unmodified-since"},
	{Name: "last-modified"},
	{Name: "link"},
	{Name: "location"},
	{Name: "max-forwards"},
	{Name: "proxy-authenticate"},
	{Name: "proxy-authorization"},
	{Name: "range"},
	{Name: "referer"},
	{Name: "refresh"},
	{Name: "retry-after"},
	{Name: "server"},
	{Name: "set-cookie"},
	{Name: "strict-transport-security"},
	{Name: "transfer-encoding"},
	{Name: "user-agent"},
	{Name: "vary"},
	{Name: "via"},
	{Name: "www-authenticate"},
}

const staticTableLen = len(staticTable) - 1

// tableKey identifies an exact name/value pair for reverse lookup.
type tableKey struct{ name, value string }

// staticIndex maps exact pairs to their static-table index, and
// staticNameIndex maps a name to the lowest index carrying that name.
var (
	staticIndex     = map[tableKey]uint64{}
	staticNameIndex = map[string]uint64{}
)

func init() {
	for i := 1; i <= staticTableLen; i++ {
		e := staticTable[i]
		k := tableKey{e.Name, e.Value}
		if _, ok := staticIndex[k]; !ok {
			staticIndex[k] = uint64(i)
		}
		if _, ok := staticNameIndex[e.Name]; !ok {
			staticNameIndex[e.Name] = uint64(i)
		}
	}
}

// dynamicTable is the RFC 7541 §2.3.2 dynamic table: a FIFO of entries
// bounded by maxSize, with §4.1 size accounting and §4.3 eviction.
//
// Entries are stored oldest-first in ents; the newest entry has HPACK
// index 1 and lives at ents[len(ents)-1].
type dynamicTable struct {
	ents    []HeaderField
	size    uint32 // sum of entry sizes
	maxSize uint32 // current effective capacity
}

func newDynamicTable(maxSize uint32) *dynamicTable {
	return &dynamicTable{maxSize: maxSize}
}

// setMaxSize applies a dynamic table size update, evicting as needed.
func (t *dynamicTable) setMaxSize(n uint32) {
	t.maxSize = n
	t.evict()
}

// add inserts f as the newest entry. Per §4.4, an entry larger than the
// table capacity empties the table and inserts nothing.
func (t *dynamicTable) add(f HeaderField) {
	if f.size() > t.maxSize {
		t.ents = t.ents[:0]
		t.size = 0
		return
	}
	t.ents = append(t.ents, f)
	t.size += f.size()
	t.evict()
}

func (t *dynamicTable) evict() {
	drop := 0
	for t.size > t.maxSize && drop < len(t.ents) {
		t.size -= t.ents[drop].size()
		drop++
	}
	if drop > 0 {
		copy(t.ents, t.ents[drop:])
		t.ents = t.ents[:len(t.ents)-drop]
	}
}

// at returns the entry with dynamic index i (1 = newest).
func (t *dynamicTable) at(i uint64) (HeaderField, bool) {
	if i == 0 || i > uint64(len(t.ents)) {
		return HeaderField{}, false
	}
	return t.ents[uint64(len(t.ents))-i], true
}

// search returns the dynamic index of an exact name/value match, or the
// index of a name-only match, preferring exact matches and newer entries.
func (t *dynamicTable) search(f HeaderField) (idx uint64, nameIdx uint64) {
	for j := len(t.ents) - 1; j >= 0; j-- {
		e := t.ents[j]
		if e.Name != f.Name {
			continue
		}
		i := uint64(len(t.ents) - j)
		if nameIdx == 0 {
			nameIdx = i
		}
		if e.Value == f.Value {
			return i, nameIdx
		}
	}
	return 0, nameIdx
}

// lookup resolves an absolute HPACK index against the static table then
// the dynamic table.
func lookup(t *dynamicTable, i uint64) (HeaderField, bool) {
	if i == 0 {
		return HeaderField{}, false
	}
	if i <= uint64(staticTableLen) {
		return staticTable[i], true
	}
	return t.at(i - uint64(staticTableLen))
}
