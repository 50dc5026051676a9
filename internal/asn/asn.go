// Package asn provides an IP-to-ASN mapping database with
// longest-prefix-match lookup over a binary radix trie, standing in for
// the internal database the paper used to resolve destination IPs to
// origin autonomous systems (§3.1, §4.1). It serves imported HAR
// archives (report -har -asn), whose addresses arrive without an AS;
// generated corpora carry their AS numbers and name them by
// webgen.OrgOf.
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
	"strconv"
	"strings"
	"sync"
)

// entry describes one registered prefix.
type entry struct {
	Prefix netip.Prefix
	ASN    uint32
	Org    string
}

// DB maps IP addresses to autonomous systems.
type DB struct {
	mu   sync.RWMutex
	v4   *node
	v6   *node
	orgs map[uint32]string
}

type node struct {
	children [2]*node
	entry    *entry
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{v4: &node{}, v6: &node{}, orgs: make(map[uint32]string)}
}

// addPrefix registers a prefix for an ASN. A more specific prefix added later
// wins for addresses it covers. Adding the same prefix twice overwrites.
func (db *DB) addPrefix(prefix netip.Prefix, as uint32, org string) error {
	if !prefix.IsValid() {
		return fmt.Errorf("asn: invalid prefix %v", prefix)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.add(entry{Prefix: prefix.Masked(), ASN: as, Org: org})
	return nil
}

// add registers e, whose prefix is valid and masked; db.mu is held.
func (db *DB) add(e entry) {
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
			n.children[b] = &node{}
		}
		n = n.children[b]
	}
	n.entry = &e
	if e.Org != "" {
		db.orgs[e.ASN] = e.Org
	}
}

// lookup returns the most specific entry covering addr.
func (db *DB) lookup(addr netip.Addr) (entry, bool) {
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
	var best *entry
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
		return entry{}, false
	}
	return *best, true
}

// LookupASN is Lookup returning just the AS number (0 when unknown).
func (db *DB) LookupASN(addr netip.Addr) uint32 {
	e, ok := db.lookup(addr)
	if !ok {
		return 0
	}
	return e.ASN
}

// Org returns the organization name registered for an ASN.
func (db *DB) Org(as uint32) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.orgs[as]
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
		as, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "AS"), 10, 32)
		if err != nil {
			return count, fmt.Errorf("asn: line %d: bad ASN %q", line, fields[1])
		}
		org := ""
		if len(fields) > 2 {
			org = strings.Join(fields[2:], " ")
		}
		if err := db.addPrefix(prefix, uint32(as), org); err != nil {
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
