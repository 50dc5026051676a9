package asn

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

func TestLongestPrefixMatch(t *testing.T) {
	db := NewDB()
	db.addPrefix(pfx("192.0.0.0/8"), 100, "Coarse")
	db.addPrefix(pfx("192.0.2.0/24"), 200, "Fine")
	db.addPrefix(pfx("192.0.2.128/25"), 300, "Finest")

	cases := []struct {
		addr string
		want uint32
	}{
		{"192.1.1.1", 100},
		{"192.0.2.5", 200},
		{"192.0.2.200", 300},
	}
	for _, c := range cases {
		if got := db.LookupASN(ip(c.addr)); got != c.want {
			t.Errorf("LookupASN(%s) = %d, want %d", c.addr, got, c.want)
		}
	}
	if _, ok := db.lookup(ip("10.0.0.1")); ok {
		t.Error("found entry for unregistered space")
	}
}

func TestLookupIPv6(t *testing.T) {
	db := NewDB()
	db.addPrefix(pfx("2001:db8::/32"), 64512, "DocNet")
	db.addPrefix(pfx("2001:db8:ff::/48"), 64513, "DocNet-Fine")
	if got := db.LookupASN(ip("2001:db8::1")); got != 64512 {
		t.Errorf("v6 coarse = %d", got)
	}
	if got := db.LookupASN(ip("2001:db8:ff::9")); got != 64513 {
		t.Errorf("v6 fine = %d", got)
	}
	if got := db.LookupASN(ip("2002::1")); got != 0 {
		t.Errorf("unregistered v6 = %d", got)
	}
}

func TestV4MappedV6Unmapped(t *testing.T) {
	db := NewDB()
	db.addPrefix(pfx("198.51.100.0/24"), 7, "Mapped")
	mapped := netip.AddrFrom16(netip.MustParseAddr("::ffff:198.51.100.9").As16())
	if got := db.LookupASN(mapped); got != 7 {
		t.Errorf("v4-mapped lookup = %d, want 7", got)
	}
}

func TestOverwriteSamePrefix(t *testing.T) {
	db := NewDB()
	db.addPrefix(pfx("203.0.113.0/24"), 1, "One")
	db.addPrefix(pfx("203.0.113.0/24"), 2, "Two")
	if db.len() != 1 {
		t.Errorf("Len = %d", db.len())
	}
	if got := db.LookupASN(ip("203.0.113.77")); got != 2 {
		t.Errorf("overwrite lost: %d", got)
	}
}

func TestOrgRegistry(t *testing.T) {
	db := NewDB()
	db.addPrefix(pfx("192.0.2.0/24"), 13335, "Cloudflare")
	if db.Org(13335) != "Cloudflare" {
		t.Error("org lookup failed")
	}
	if db.Org(99999) != "" {
		t.Error("org for unknown ASN")
	}
}

func TestLoad(t *testing.T) {
	input := `
# comment
192.0.2.0/24 AS13335 Cloudflare Inc
198.51.100.0/24 15169 Google LLC

2001:db8::/32 AS64512
`
	db := NewDB()
	n, err := db.Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("loaded %d", n)
	}
	if db.LookupASN(ip("192.0.2.1")) != 13335 {
		t.Error("cloudflare prefix lost")
	}
	if db.Org(15169) != "Google LLC" {
		t.Errorf("org = %q", db.Org(15169))
	}
}

func TestLoadErrors(t *testing.T) {
	for _, bad := range []string{"nonsense", "192.0.2.0/24", "badprefix AS1", "192.0.2.0/24 ASxyz"} {
		db := NewDB()
		if _, err := db.Load(strings.NewReader(bad)); err == nil {
			t.Errorf("Load(%q) succeeded", bad)
		}
	}
}

// Property: for random /16s and addresses inside them, lookup returns
// the registered entry, and containment always holds.
func TestLookupPropertyQuick(t *testing.T) {
	db := NewDB()
	rng := rand.New(rand.NewSource(7))
	type reg struct {
		p  netip.Prefix
		as uint32
	}
	var regs []reg
	for i := 0; i < 200; i++ {
		a := netip.AddrFrom4([4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(256)), 0, 0})
		p := netip.PrefixFrom(a, 16).Masked()
		as := uint32(i + 1)
		db.addPrefix(p, as, "")
		regs = append(regs, reg{p, as})
	}
	f := func(i uint16, lo uint16) bool {
		r := regs[int(i)%len(regs)]
		base := r.p.Addr().As4()
		addr := netip.AddrFrom4([4]byte{base[0], base[1], byte(lo >> 8), byte(lo)})
		e, ok := db.lookup(addr)
		return ok && e.Prefix.Contains(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// len returns the number of registered prefixes.
func (db *DB) len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var count func(n *node) int
	count = func(n *node) int {
		if n == nil {
			return 0
		}
		c := count(n.children[0]) + count(n.children[1])
		if n.entry != nil {
			c++
		}
		return c
	}
	return count(db.v4) + count(db.v6)
}
