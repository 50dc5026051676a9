package certs

import (
	"crypto/x509"
	"net"
	"strings"
	"testing"
)

func TestCovers(t *testing.T) {
	cases := []struct {
		sans []string
		host string
		want bool
	}{
		{[]string{"example.com"}, "example.com", true}, // exact
		{[]string{"a.example.com", "*.b.example.com"}, "a.example.com", true},
		{[]string{"a.example.com", "*.b.example.com"}, "c.example.com", false},
		{[]string{"a.example.com", "*.b.example.com"}, "x.b.example.com", true},
		{[]string{"a.example.com", "*.b.example.com"}, "x.y.b.example.com", false},
		{[]string{"a.example.com", "*.b.example.com"}, "b.example.com", false},
		{[]string{"*.example.com"}, "www.example.com", true},
		{[]string{"*.example.com"}, "example.com", false},     // bare suffix
		{[]string{"*.example.com"}, "a.b.example.com", false}, // multi-label
		{[]string{"*.example.com"}, ".example.com", false},    // empty label
		{[]string{"*.example.com", "example.com"}, "example.com", true},
		{[]string{"*.co.uk"}, "example.co.uk", true}, // single label over a ccTLD
		{[]string{"*.example.com"}, "wwwexample.com", false},
		{[]string{"*."}, "a.", false}, // the bare wildcard covers nothing
		{[]string{"*."}, "anything", false},
		{[]string{"*."}, "", false},
		{nil, "example.com", false},
	}
	for _, c := range cases {
		if got := Covers(c.sans, c.host); got != c.want {
			t.Errorf("Covers(%q, %q) = %v, want %v", c.sans, c.host, got, c.want)
		}
	}
}

// divergence names the class of input on which Covers and
// x509.Certificate.VerifyHostname may disagree, or "" when they must
// agree. Every class is a property of the host: once the host is an LDH
// name, VerifyHostname matches a malformed SAN exactly, and a wildcard
// SAN can only cover host when it is "*" followed by host's own labels.
func divergence(host string) string {
	switch {
	case strings.HasSuffix(host, "."):
		// VerifyHostname drops one trailing dot from a valid host.
		return "trailing dot"
	case net.ParseIP(strings.TrimSuffix(strings.TrimPrefix(host, "["), "]")) != nil:
		// VerifyHostname matches IP literals against IP SANs only.
		return "IP literal"
	case !ldhName(host):
		// VerifyHostname matches a malformed host exactly, and an empty
		// one never.
		return "non-LDH or empty label"
	}
	return ""
}

// ldhName reports whether every label of host is non-empty, does not
// start with a hyphen, and holds only lower-case letters, digits and
// hyphens.
func ldhName(host string) bool {
	for _, label := range strings.Split(host, ".") {
		if label == "" || label[0] == '-' {
			return false
		}
		for i := 0; i < len(label); i++ {
			if c := label[i]; (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
				return false
			}
		}
	}
	return true
}

// FuzzCoverage holds Covers to crypto/x509 over lower-case names: sans
// is a comma-separated SAN list.
func FuzzCoverage(f *testing.F) {
	f.Add("*.example.com,example.com", "www.example.com")
	f.Add("*.example.com", "a.b.example.com")
	f.Add("*.co.uk", "example.co.uk")
	f.Add("*.", "a.")
	f.Add("*.", "a")
	f.Fuzz(func(t *testing.T, sans, host string) {
		if strings.ContainsFunc(sans+host, func(r rune) bool { return 'A' <= r && r <= 'Z' }) {
			return // callers pass canonical lower-case names
		}
		if divergence(host) != "" {
			return
		}
		list := strings.Split(sans, ",")
		want := (&x509.Certificate{DNSNames: list}).VerifyHostname(host) == nil
		if got := Covers(list, host); got != want {
			t.Errorf("Covers(%q, %q) = %v, VerifyHostname says %v", list, host, got, want)
		}
	})
}
