package h2

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestCanonicalOrigin(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"example.com", "https://example.com", false},
		{"Example.COM", "https://example.com", false},
		{"https://example.com", "https://example.com", false},
		{"https://example.com:443", "https://example.com", false},
		{"https://example.com:8443", "https://example.com:8443", false},
		{"https://example.com/", "https://example.com", false},
		{"cdn.example.net:443", "https://cdn.example.net", false},
		{"https://[::1]:8443", "https://[::1]:8443", false},
		{"http://example.com", "", true},
		{"ftp://example.com", "", true},
		{"", "", true},
		{"https://example.com/path", "", true},
		{"https://exa mple.com", "", true},
		{"https://example.com:port", "", true},
		{"https://:8443", "", true},
		{"https://[::1]", "https://[::1]", false},
		{"https://[2001:DB8::1]:443", "https://[2001:db8::1]", false},
		{"example.com::", "", true}, // a colon outside an IPv6 literal is the port separator, once
		{"a:b:443", "", true},
		{"https://[::1", "", true},
		{"https://[::1]8443", "", true},
		{"https://[example]", "", true},
	}
	for _, c := range cases {
		got, err := canonicalOrigin(c.in)
		if c.err {
			if err == nil {
				t.Errorf("canonicalOrigin(%q) = %q, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("canonicalOrigin(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

func TestCanonicalOriginIdempotent(t *testing.T) {
	f := func(host string) bool {
		c1, err := canonicalOrigin(host)
		if err != nil {
			return true // invalid inputs are out of scope
		}
		c2, err := canonicalOrigin(c1)
		return err == nil && c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOriginHost(t *testing.T) {
	cases := []struct{ in, want string }{
		{"https://example.com", "example.com"},
		{"https://example.com:8443", "example.com"},
		{"https://[::1]:8443", "[::1]"},
		{"https://[::1]", "[::1]"},
	}
	for _, c := range cases {
		if got := originHost(c.in); got != c.want {
			t.Errorf("originHost(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestOriginSetReplaceSemantics(t *testing.T) {
	s := newOriginSet()
	if s.len() != 0 {
		t.Errorf("fresh set holds %v", s.All())
	}
	s.replace([]string{"a.example", "b.example"})
	if s.len() != 2 {
		t.Fatalf("after replace: len=%d", s.len())
	}
	if !s.contains("a.example") || !s.contains("https://b.example") {
		t.Error("membership lookups failed")
	}
	// A second ORIGIN frame replaces, not merges.
	s.replace([]string{"c.example"})
	if s.contains("a.example") || !s.contains("c.example") || s.len() != 1 {
		t.Errorf("replace did not replace: %v", s.All())
	}
}

func TestOriginSetSkipsInvalidEntries(t *testing.T) {
	s := newOriginSet()
	s.replace([]string{"good.example", "http://bad.example", "", "also good.example/nope path"})
	if s.len() != 1 || !s.contains("good.example") {
		t.Errorf("set = %v", s.All())
	}
}

func TestOriginSetAll(t *testing.T) {
	s := newOriginSet("b.example", "a.example")
	want := []string{"https://a.example", "https://b.example"}
	if got := s.All(); !reflect.DeepEqual(got, want) {
		t.Errorf("All() = %v, want %v", got, want)
	}
}

func TestOriginSetAddAndContains(t *testing.T) {
	var s OriginSet
	s.add("www.example.com")
	if !s.contains("WWW.example.com") {
		t.Error("case-insensitive membership failed")
	}
	s.add("http://ignored.example")
	if s.contains("ignored.example") {
		t.Error("non-https origin admitted")
	}
}

// len returns the number of origins in the set.
func (s *OriginSet) len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.origins)
}
