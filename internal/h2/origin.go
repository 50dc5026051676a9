package h2

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// An OriginSet is the set of origins a connection is authoritative for,
// per RFC 8336 §2.3. The zero value is an empty, unusable set; use
// newOriginSet, or let a ClientConn maintain one.
//
// Origins are stored in their ASCII serialization ("https://host[:port]",
// RFC 6454 §6.2) with the default port elided and the host lowercased.
type OriginSet struct {
	mu      sync.RWMutex
	origins map[string]struct{}
}

// newOriginSet returns an origin set seeded with the given origins.
func newOriginSet(origins ...string) *OriginSet {
	s := &OriginSet{origins: make(map[string]struct{})}
	for _, o := range origins {
		if c, err := canonicalOrigin(o); err == nil {
			s.origins[c] = struct{}{}
		}
	}
	return s
}

// replace installs the origins from an ORIGIN frame. Per RFC 8336 §2.3
// "The ORIGIN frame allows a sender to indicate what origins it would
// like the origin set to contain": each frame replaces the set. Invalid
// entries are skipped — clients are required to ignore what they cannot
// parse (fail-open).
func (s *OriginSet) replace(origins []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.origins = make(map[string]struct{}, len(origins))
	for _, o := range origins {
		if c, err := canonicalOrigin(o); err == nil {
			s.origins[c] = struct{}{}
		}
	}
}

// add inserts a single origin, e.g. the connection's own origin.
func (s *OriginSet) add(origin string) {
	c, err := canonicalOrigin(origin)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.origins == nil {
		s.origins = make(map[string]struct{})
	}
	s.origins[c] = struct{}{}
}

// contains reports whether origin is in the set.
func (s *OriginSet) contains(origin string) bool {
	c, err := canonicalOrigin(origin)
	if err != nil {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.origins[c]
	return ok
}

// All returns the sorted origins in the set.
func (s *OriginSet) All() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.origins))
	for o := range s.origins {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// canonicalOrigin normalizes an origin or hostname to the RFC 6454 §6.2
// ASCII serialization with scheme https. Accepted inputs:
//
//	example.com            -> https://example.com
//	example.com:8443       -> https://example.com:8443
//	https://Example.COM:443 -> https://example.com
//
// Only https origins are meaningful for ORIGIN frames (RFC 8336 §2.1);
// any other scheme is rejected.
func canonicalOrigin(in string) (string, error) {
	s := strings.TrimSpace(in)
	if s == "" {
		return "", fmt.Errorf("h2: empty origin")
	}
	scheme := "https"
	if i := strings.Index(s, "://"); i >= 0 {
		scheme = strings.ToLower(s[:i])
		s = s[i+3:]
	}
	if scheme != "https" {
		return "", fmt.Errorf("h2: origin scheme %q not coalescable", scheme)
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		if strings.Trim(s[i:], "/") != "" {
			return "", fmt.Errorf("h2: origin %q has a path", in)
		}
		s = s[:i]
	}
	// An IPv6 literal keeps its colons inside brackets; anywhere else a
	// colon separates the port.
	host, port := s, ""
	literal := strings.HasPrefix(s, "[")
	if literal {
		j := strings.IndexByte(s, ']')
		if j < 0 || j+1 < len(s) && s[j+1] != ':' {
			return "", fmt.Errorf("h2: origin %q has a malformed IPv6 literal", in)
		}
		host, port = s[:j+1], strings.TrimPrefix(s[j+1:], ":")
	} else if i := strings.LastIndexByte(s, ':'); i >= 0 {
		host, port = s[:i], s[i+1:]
	}
	host = strings.ToLower(host)
	name, letters := host, 'z'
	if literal {
		name, letters = host[1:len(host)-1], 'f'
	}
	if name == "" {
		return "", fmt.Errorf("h2: origin %q missing host", in)
	}
	for _, r := range name {
		if r >= 'a' && r <= letters || r >= '0' && r <= '9' || r == '.' ||
			literal && r == ':' || !literal && (r == '-' || r == '_') {
			continue
		}
		return "", fmt.Errorf("h2: origin host %q has invalid character %q", host, r)
	}
	if port == "" || port == "443" {
		return scheme + "://" + host, nil
	}
	for _, r := range port {
		if r < '0' || r > '9' {
			return "", fmt.Errorf("h2: origin port %q invalid", port)
		}
	}
	return scheme + "://" + host + ":" + port, nil
}

// originHost extracts the host (without port) from a canonical origin.
func originHost(origin string) string {
	s := strings.TrimPrefix(origin, "https://")
	if i := strings.LastIndexByte(s, ':'); i >= 0 && !strings.HasSuffix(s, "]") {
		if !strings.Contains(s[i+1:], "]") {
			s = s[:i]
		}
	}
	return s
}
