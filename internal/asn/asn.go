// Package asn provides an IP-to-ASN mapping database with
// longest-prefix-match lookup over a binary radix trie, standing in for
// the internal database the paper used to resolve destination IPs to
// origin autonomous systems (§3.1, §4.1).
//
// The trie stores IPv4 and IPv6 prefixes uniformly as bit strings; a
// lookup walks at most 128 levels and returns the most specific
// registered prefix containing the address.
package asn

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"
	"sync"
)

// ASN is an autonomous system number.
type ASN uint32

// Entry describes one registered prefix.
type Entry struct {
	Prefix netip.Prefix
	ASN    ASN
	Org    string
}

// DB maps IP addresses to autonomous systems.
type DB struct {
	mu   sync.RWMutex
	v4   *node
	v6   *node
	orgs map[ASN]string
	n    int
	free []node // unused trie nodes, allocated a chunk at a time
}

type node struct {
	children [2]*node
	entry    *Entry
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{v4: &node{}, v6: &node{}, orgs: make(map[ASN]string)}
}

// Add registers a prefix for an ASN. A more specific prefix added later
// wins for addresses it covers. Adding the same prefix twice overwrites.
func (db *DB) Add(prefix netip.Prefix, as ASN, org string) error {
	if !prefix.IsValid() {
		return fmt.Errorf("asn: invalid prefix %v", prefix)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.add(Entry{Prefix: prefix.Masked(), ASN: as, Org: org})
	return nil
}

// add registers e, whose prefix is valid and masked; db.mu is held.
func (db *DB) add(e Entry) {
	root := db.v4
	if e.Prefix.Addr().Is6() {
		root = db.v6
	}
	bits := e.Prefix.Addr().As16()
	first := firstBit(e.Prefix.Addr())
	n := root
	for i := first; i < first+e.Prefix.Bits(); i++ {
		b := bit(&bits, i)
		if n.children[b] == nil {
			if len(db.free) == 0 {
				db.free = make([]node, 64)
			}
			n.children[b], db.free = &db.free[0], db.free[1:]
		}
		n = n.children[b]
	}
	if n.entry == nil {
		db.n++
	}
	n.entry = &e
	if e.Org != "" {
		db.orgs[e.ASN] = e.Org
	}
}

// Merge registers every entry of other into db. Overlapping or equal
// prefixes follow Add semantics (the merged entry overwrites), so
// merging shard databases left-to-right in shard order is deterministic.
// Organization names registered in other survive even when a prefix was
// overwritten there. Merging a database into itself is a no-op.
func (db *DB) Merge(other *DB) error {
	if other == nil || other == db {
		return nil
	}
	// A trie holds one entry per distinct prefix, so the order they are
	// added in cannot matter: take them as the walk finds them. other is
	// read before db is locked — never both locks at once.
	other.mu.RLock()
	entries := other.walk(make([]Entry, 0, other.n))
	orgs := make(map[ASN]string, len(other.orgs))
	for as, org := range other.orgs {
		orgs[as] = org
	}
	other.mu.RUnlock()
	db.mu.Lock()
	for _, e := range entries {
		db.add(e)
	}
	for as, org := range orgs {
		if org != "" {
			db.orgs[as] = org
		}
	}
	db.mu.Unlock()
	return nil
}

// walk appends every registered entry to out in trie order; the caller
// holds db.mu.
func (db *DB) walk(out []Entry) []Entry {
	var visit func(n *node)
	visit = func(n *node) {
		if n == nil {
			return
		}
		if n.entry != nil {
			out = append(out, *n.entry)
		}
		visit(n.children[0])
		visit(n.children[1])
	}
	visit(db.v4)
	visit(db.v6)
	return out
}

// Len returns the number of registered prefixes.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.n
}

// Lookup returns the most specific entry covering addr.
func (db *DB) Lookup(addr netip.Addr) (Entry, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	root := db.v4
	maxBits := 32
	if addr.Is6() {
		root = db.v6
		maxBits = 128
	}
	bits := addr.As16()
	first := firstBit(addr)
	var best *Entry
	n := root
	for i := first; ; i++ {
		if n.entry != nil {
			best = n.entry
		}
		if i >= first+maxBits {
			break
		}
		n = n.children[bit(&bits, i)]
		if n == nil {
			break
		}
	}
	if best == nil {
		return Entry{}, false
	}
	return *best, true
}

// LookupASN is Lookup returning just the AS number (0 when unknown).
func (db *DB) LookupASN(addr netip.Addr) ASN {
	e, ok := db.Lookup(addr)
	if !ok {
		return 0
	}
	return e.ASN
}

// Org returns the organization name registered for an ASN.
func (db *DB) Org(as ASN) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.orgs[as]
}

// Entries returns all registered entries sorted by prefix string.
func (db *DB) Entries() []Entry {
	db.mu.RLock()
	out := db.walk(make([]Entry, 0, db.n))
	db.mu.RUnlock()
	// Each trie node stores at most one entry and sits at a distinct
	// prefix, so the keys are unique and the unstable sort is total.
	// Render each key once, not once per comparison.
	keys := make([]string, len(out))
	for i := range out {
		keys[i] = out[i].Prefix.String()
	}
	sort.Sort(byKey{keys, out})
	return out
}

// byKey sorts entries by their rendered prefixes.
type byKey struct {
	keys    []string
	entries []Entry
}

func (s byKey) Len() int           { return len(s.keys) }
func (s byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
}

// Load reads "prefix asn org-name..." lines (comments with #, blank
// lines skipped), the common interchange format for routing snapshots.
func (db *DB) Load(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	count := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return count, fmt.Errorf("asn: line %d: need 'prefix asn [org]'", line)
		}
		prefix, err := netip.ParsePrefix(fields[0])
		if err != nil {
			return count, fmt.Errorf("asn: line %d: %w", line, err)
		}
		var as ASN
		if _, err := fmt.Sscanf(strings.TrimPrefix(fields[1], "AS"), "%d", &as); err != nil {
			return count, fmt.Errorf("asn: line %d: bad ASN %q", line, fields[1])
		}
		org := ""
		if len(fields) > 2 {
			org = strings.Join(fields[2:], " ")
		}
		if err := db.Add(prefix, as, org); err != nil {
			return count, err
		}
		count++
	}
	return count, sc.Err()
}

// firstBit is where an address's own bits start in its 16-byte form: an
// IPv4 address occupies the last four bytes.
func firstBit(a netip.Addr) int {
	if a.Is4() {
		return 96
	}
	return 0
}

func bit(bits *[16]byte, i int) int {
	return int(bits[i/8]>>(7-i%8)) & 1
}
