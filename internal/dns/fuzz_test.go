package dns

import (
	"bytes"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzUnpack feeds Unpack arbitrary bytes: valid messages, their
// truncations, and whatever the fuzzer derives. Unpack must never panic
// and must not allocate beyond a multiple of the message's own size,
// whatever record counts the header declares and however compression
// pointers multiply a name. What it does unpack must pack again — Pack
// may refuse only a record type it has no encoding for — and the packed
// bytes must unpack to an equal message.
func FuzzUnpack(f *testing.F) {
	valid := func(m *Message) []byte {
		raw, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	query := valid(&Message{Header: Header{ID: 7, RD: true}, Questions: []Question{{"www.example.com", TypeA, ClassINET}}})
	answer := valid(&Message{
		Header:    Header{ID: 7, QR: true, AA: true},
		Questions: []Question{{"www.example.com", TypeA, ClassINET}},
		Answers: []RR{
			{Name: "www.example.com", Type: typeCNAME, TTL: 300, Target: "edge.example.com"},
			{Name: "edge.example.com", Type: TypeA, TTL: 60, Addr: netip.MustParseAddr("192.0.2.1")},
			{Name: "edge.example.com", Type: typeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::1")},
		},
		Authority:  []RR{{Name: "example.com", Type: typeNS, TTL: 3600, Target: "ns1.example.com"}},
		Additional: []RR{{Name: "example.com", Type: typeTXT, TTL: 5, Text: "v=spf1 -all"}},
	})
	for _, raw := range [][]byte{query, answer} {
		f.Add(raw)
		for _, cut := range []int{0, 5, 11, 12, 13, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:cut])
		}
	}
	// 65 535 answers declared, none delivered.
	f.Add([]byte{0, 1, 0x80, 0, 0, 0, 0xff, 0xff, 0, 0, 0, 0})
	// A name that is a pointer to itself, and a chain of pointers each to
	// the one before.
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1})
	f.Add(append([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 'a', 0}, bytes.Repeat([]byte{0xc0, 12}, 40)...))

	// Beside the upper-case name under testdata/fuzz, which unpacked to a
	// name Pack lower-cased: an AAAA record holding an IPv4-mapped address
	// (it unpacked, Pack refused it); a CNAME with empty rdata, whose
	// target used to be read out of the bytes after the record; a name
	// whose wire form is one octet over RFC 1035's 255.
	rr := func(typ byte, rdata ...byte) []byte {
		return append([]byte{0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, typ, 0, 1, 0, 0, 0, 0, 0, byte(len(rdata))}, rdata...)
	}
	f.Add(rr(byte(typeAAAA), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 1, 2, 3, 4))
	f.Add(append(rr(byte(typeCNAME)), 1, 'a', 0))
	long := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, n := range []int{63, 63, 63, 62} {
		long = append(append(long, byte(n)), bytes.Repeat([]byte{'a'}, n)...)
	}
	f.Add(append(long, 0, 0, 1, 0, 1))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Unpack(raw)
		runtime.ReadMemStats(&after)
		// Worst honest ratio: a 12-byte record of two pointers unpacks to
		// an 80-byte RR and two 255-byte names, each built by doubling.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(512*len(raw)+64<<10); grew > bound {
			t.Fatalf("unpacking %d bytes allocated %d, bound %d", len(raw), grew, bound)
		}
		if err != nil {
			return
		}
		packed, err := m.Pack()
		if err != nil {
			if !strings.Contains(err.Error(), "cannot pack record type") {
				t.Fatalf("unpacked message does not pack: %v\n%+v", err, m)
			}
			return
		}
		again, err := Unpack(packed)
		if err != nil {
			t.Fatalf("packed message does not unpack: %v\n%+v", err, m)
		}
		// Pack defaults a zero class to IN.
		for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
			for i := range sec {
				if sec[i].Class == 0 {
					sec[i].Class = ClassINET
				}
			}
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("unpack(pack(m)) differs:\n got %+v\nwant %+v", again, m)
		}
	})
}
