package asn

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// FuzzLoad feeds the prefix-file reader arbitrary bytes: a valid file,
// its truncations, and whatever the fuzzer derives. Load must never
// panic and must not allocate beyond a multiple of the file's own size.
// A file it accepts holds only lines of the documented form, and loading
// those lines again, rendered from what the first load understood,
// builds a database that answers the same for every prefix's address.
func FuzzLoad(f *testing.F) {
	valid := "# routing snapshot\n192.0.2.0/24 AS13335 Cloudflare Inc\n\n198.51.100.0/24 15169 Google LLC\n2001:db8::/32 AS64500\n10.0.0.0/8 1 A\n10.1.0.0/16 2 B\n"
	f.Add([]byte(valid))
	for _, cut := range []int{0, 1, 19, 30, 33, len(valid) / 2, len(valid) - 1} {
		f.Add([]byte(valid[:cut]))
	}
	f.Add([]byte("192.0.2.0/24 AS4294967296\n"))
	f.Add([]byte("::/128 1\n0.0.0.0/0 2\n"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db := NewDB()
		n, err := db.Load(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		// Worst honest ratio: a nine-byte "::/128 1\n" is 128 trie nodes of
		// 24 bytes; plus the scanner's 64 KiB.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1024*len(raw)+256<<10); grew > bound {
			t.Fatalf("loading %d bytes allocated %d, bound %d", len(raw), grew, bound)
		}
		if err != nil {
			return
		}
		var rendered strings.Builder
		lines := 0
		for _, line := range strings.Split(string(raw), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
				continue
			}
			lines++
			if len(fields) < 2 {
				t.Fatalf("accepted a line without an ASN: %q", line)
			}
			prefix, perr := netip.ParsePrefix(fields[0])
			as, aerr := strconv.ParseUint(strings.TrimPrefix(fields[1], "AS"), 10, 32)
			if perr != nil || aerr != nil {
				t.Fatalf("accepted %q: prefix %v, ASN %v", line, perr, aerr)
			}
			fmt.Fprintf(&rendered, "%s AS%d %s\n", prefix, as, strings.Join(fields[2:], " "))
		}
		if n != lines || db.len() > n {
			t.Fatalf("Load counted %d entries over %d lines, Len %d", n, lines, db.len())
		}
		again := NewDB()
		if m, err := again.Load(strings.NewReader(rendered.String())); err != nil || m != n {
			t.Fatalf("rendered file loads %d entries, %v; want %d", m, err, n)
		}
		for _, line := range strings.Split(rendered.String(), "\n") {
			if line == "" {
				continue
			}
			addr := netip.MustParsePrefix(strings.Fields(line)[0]).Addr()
			got, ok := db.lookup(addr)
			want, wok := again.lookup(addr)
			if !ok || !wok || got != want || !got.Prefix.Contains(addr.Unmap()) {
				t.Fatalf("%v: %+v (%v), rendered file answers %+v (%v)", addr, got, ok, want, wok)
			}
			if db.Org(got.ASN) != again.Org(got.ASN) {
				t.Fatalf("AS%d: org %q, rendered file says %q", got.ASN, db.Org(got.ASN), again.Org(got.ASN))
			}
		}
	})
}
