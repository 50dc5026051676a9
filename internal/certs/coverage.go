package certs

import "strings"

// Covers reports whether a certificate with the SAN list sans is valid
// for host: some SAN equals host, or some SAN is "*" followed by host
// minus its first label. A wildcard stands for exactly one non-empty
// label, so "*.example.com" covers "www.example.com" but neither
// "example.com" nor "a.b.example.com", and the degenerate "*." covers
// nothing.
//
// This is the simulator's one coverage rule: the §4 model, the browser
// pool and the ticket and token stores all ask it. Names compare byte
// for byte, so callers pass canonical lower-case DNS names; upper case
// is outside its domain. On such names Covers agrees with
// x509.Certificate.VerifyHostname except on the inputs FuzzCoverage
// lists.
func Covers(sans []string, host string) bool {
	for _, san := range sans {
		if san == host {
			return true
		}
		// HasSuffix only filters ahead of HostSuffix's byte scan: a
		// replay asks Covers about every grant it scans, and most
		// wildcards there do not end host.
		if w := WildcardSuffix(san); w != "" && strings.HasSuffix(host, w) && HostSuffix(host) == w {
			return true
		}
	}
	return false
}

// WildcardSuffix returns the ".example.com" a "*.example.com" SAN is
// indexed under, or "" when san is not a wildcard.
func WildcardSuffix(san string) string {
	if len(san) > 2 && san[0] == '*' && san[1] == '.' {
		return san[1:]
	}
	return ""
}

// HostSuffix returns host minus its first label, the one wildcard
// suffix that can cover host, or "" when host has no non-empty first
// label followed by a dot.
func HostSuffix(host string) string {
	if dot := strings.IndexByte(host, '.'); dot > 0 {
		return host[dot:]
	}
	return ""
}
