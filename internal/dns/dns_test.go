package dns

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestNameRoundTrip(t *testing.T) {
	names := []string{"example.com", "www.example.com.", "a.b.c.d.e.example", "."}
	for _, name := range names {
		offs := nameOffsets{}
		enc, err := appendName(nil, name, offs)
		if err != nil {
			t.Fatalf("appendName(%q): %v", name, err)
		}
		got, next, err := readName(enc, 0)
		if err != nil {
			t.Fatalf("readName(%q): %v", name, err)
		}
		if next != len(enc) {
			t.Errorf("readName(%q) consumed %d of %d", name, next, len(enc))
		}
		if got != canonicalName(name) {
			t.Errorf("round trip %q -> %q", name, got)
		}
	}
}

func TestNameCompression(t *testing.T) {
	offs := nameOffsets{}
	buf, _ := appendName(nil, "www.example.com", offs)
	before := len(buf)
	buf, _ = appendName(buf, "img.example.com", offs)
	// "example.com." must be a 2-byte pointer in the second name.
	if len(buf)-before >= len("img.example.com")+2 {
		t.Errorf("no compression: second name used %d bytes", len(buf)-before)
	}
	got1, next, err := readName(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := readName(buf, next)
	if err != nil {
		t.Fatal(err)
	}
	if got1 != "www.example.com." || got2 != "img.example.com." {
		t.Errorf("decoded %q, %q", got1, got2)
	}
}

func TestNameLimits(t *testing.T) {
	if _, err := appendName(nil, strings.Repeat("a", 64)+".example", nameOffsets{}); err != errLabelTooLong {
		t.Errorf("want ErrLabelTooLong, got %v", err)
	}
	long := strings.Repeat("abcdefg.", 40) // > 255 octets
	if _, err := appendName(nil, long, nameOffsets{}); err != errNameTooLong {
		t.Errorf("want ErrNameTooLong, got %v", err)
	}
}

func TestBadPointerRejected(t *testing.T) {
	// Self-referential pointer.
	if _, _, err := readName([]byte{0xc0, 0x00}, 0); err == nil {
		t.Error("self-pointer accepted")
	}
	// Pointer past message end.
	if _, _, err := readName([]byte{0xc0, 0x7f}, 0); err == nil {
		t.Error("out-of-range pointer accepted")
	}
}

func TestMessagePackUnpack(t *testing.T) {
	m := &Message{
		Header: Header{ID: 42, RD: true},
		Questions: []Question{
			{Name: "www.example.com", Type: TypeA, Class: ClassINET},
		},
		Answers: []RR{
			{Name: "www.example.com", Type: typeCNAME, Class: ClassINET, TTL: 60, Target: "edge.cdn.example"},
			{Name: "edge.cdn.example", Type: TypeA, Class: ClassINET, TTL: 60, Addr: ip("192.0.2.1")},
			{Name: "edge.cdn.example", Type: TypeA, Class: ClassINET, TTL: 60, Addr: ip("192.0.2.2")},
			{Name: "edge.cdn.example", Type: typeAAAA, Class: ClassINET, TTL: 60, Addr: ip("2001:db8::1")},
		},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 42 || !got.Header.RD || got.Header.QR {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Answers) != 4 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	if got.Answers[0].Target != "edge.cdn.example." {
		t.Errorf("cname target = %q", got.Answers[0].Target)
	}
	if got.Answers[1].Addr != ip("192.0.2.1") || got.Answers[3].Addr != ip("2001:db8::1") {
		t.Errorf("addresses wrong: %+v", got.Answers)
	}
}

func TestMessageRoundTripQuick(t *testing.T) {
	f := func(id uint16, labels [][]byte, a4 [4]byte, a16 [16]byte) bool {
		name := ""
		for _, l := range labels {
			clean := sanitize(l)
			if clean == "" {
				continue
			}
			name += clean + "."
		}
		if name == "" {
			name = "x."
		}
		if len(name) > 200 {
			name = "trim.example."
		}
		m := &Message{
			Header:    Header{ID: id, QR: true, AA: true},
			Questions: []Question{{Name: name, Type: TypeA, Class: ClassINET}},
			Answers: []RR{
				{Name: name, Type: TypeA, Class: ClassINET, TTL: 1, Addr: netip.AddrFrom4(a4)},
				{Name: name, Type: typeAAAA, Class: ClassINET, TTL: 1, Addr: netip.AddrFrom16(a16)},
			},
		}
		// AddrFrom16 of a v4-mapped prefix yields Is4In6; skip those.
		if m.Answers[1].Addr.Is4In6() {
			return true
		}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return got.Header.ID == id &&
			len(got.Answers) == 2 &&
			got.Answers[0].Addr == m.Answers[0].Addr &&
			got.Answers[1].Addr == m.Answers[1].Addr &&
			got.Questions[0].Name == canonicalName(name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sanitize(l []byte) string {
	var b strings.Builder
	for _, c := range l {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			b.WriteByte(c)
		}
		if b.Len() == 20 {
			break
		}
	}
	return b.String()
}

func TestTruncatedMessages(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 9},
		Questions: []Question{{Name: "e.com", Type: TypeA, Class: ClassINET}},
		Answers:   []RR{{Name: "e.com", Type: TypeA, Class: ClassINET, TTL: 1, Addr: ip("192.0.2.9")}},
	}
	wire, _ := m.Pack()
	for i := 1; i < len(wire); i++ {
		if _, err := Unpack(wire[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
}

func TestAuthorityBasic(t *testing.T) {
	auth := NewAuthority()
	auth.AddA("www.site.example", ip("192.0.2.10"), ip("192.0.2.11"))
	r := NewResolver(auth)

	addrs, err := r.LookupA("www.site.example")
	if err != nil {
		t.Fatal(err)
	}
	want := []netip.Addr{ip("192.0.2.10"), ip("192.0.2.11")}
	if !reflect.DeepEqual(addrs, want) {
		t.Errorf("addrs = %v", addrs)
	}
	if r.queryCount() != 1 || auth.queryCount() != 1 {
		t.Errorf("query counters: resolver=%d authority=%d", r.queryCount(), auth.queryCount())
	}
}

func TestAuthorityNXDomain(t *testing.T) {
	auth := NewAuthority()
	r := NewResolver(auth)
	_, err := r.LookupA("nope.example")
	if _, ok := err.(*NXDomainError); !ok {
		t.Errorf("want NXDomainError, got %v", err)
	}
}

func TestRotationModelsLoadBalancing(t *testing.T) {
	auth := NewAuthority()
	auth.Rotation = true
	auth.AddA("lb.example", ip("192.0.2.1"), ip("192.0.2.2"), ip("192.0.2.3"))
	r := NewResolver(auth)

	first, _ := r.LookupA("lb.example")
	second, _ := r.LookupA("lb.example")
	third, _ := r.LookupA("lb.example")
	fourth, _ := r.LookupA("lb.example")
	if first[0] == second[0] && second[0] == third[0] {
		t.Error("rotation did not rotate")
	}
	if !reflect.DeepEqual(first, fourth) {
		t.Errorf("rotation period wrong: %v vs %v", first, fourth)
	}
	// All sets contain the same addresses.
	if len(first) != 3 || len(second) != 3 {
		t.Error("rotation dropped addresses")
	}
}

func TestAnswerLimit(t *testing.T) {
	auth := NewAuthority()
	auth.AnswerLimit = 2
	auth.AddA("many.example", ip("192.0.2.1"), ip("192.0.2.2"), ip("192.0.2.3"), ip("192.0.2.4"))
	r := NewResolver(auth)
	addrs, _ := r.LookupA("many.example")
	if len(addrs) != 2 {
		t.Errorf("got %d answers, want 2", len(addrs))
	}
}

// TestAAAALookup: the authority holds A records only; an AAAA question
// for a name it holds answers NOERROR with no addresses.
func TestAAAALookup(t *testing.T) {
	auth := NewAuthority()
	auth.AddA("v4.example", ip("192.0.2.42"))
	r := NewResolver(auth)
	res, err := r.lookup("v4.example", typeAAAA)
	if err != nil || len(res.Addrs) != 0 {
		t.Errorf("AAAA for an A-only name = %v, %v", res.Addrs, err)
	}
	if r.queryCount() != 1 {
		t.Errorf("queries = %d, want 1", r.queryCount())
	}
}
