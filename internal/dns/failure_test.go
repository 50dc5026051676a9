package dns

import (
	"net/netip"
	"strings"
	"testing"
)

// TestAuthorityFailureHook verifies the fault-injection hook: a SERVFAIL
// decision surfaces through the full wire path as a resolver error, and
// a success decision resolves normally — with the authority's query
// counter advancing either way.
func TestAuthorityFailureHook(t *testing.T) {
	auth := NewAuthority()
	auth.AddA("www.example.com", netip.MustParseAddr("192.0.2.1"))

	fail := true
	auth.Failure = func(name string, typ uint16) uint8 {
		if fail && strings.HasPrefix(name, "www.") {
			return rcodeServerFailure
		}
		return RcodeSuccess
	}

	r := NewResolver(auth)
	if _, err := r.LookupA("www.example.com"); err == nil {
		t.Fatal("lookup succeeded despite SERVFAIL hook")
	}
	if auth.queryCount() != 1 {
		t.Fatalf("queries = %d, want 1 (failures still count)", auth.queryCount())
	}

	fail = false
	addrs, err := r.LookupA("www.example.com")
	if err != nil || len(addrs) != 1 {
		t.Fatalf("lookup after hook cleared: addrs=%v err=%v", addrs, err)
	}

	// NXDOMAIN semantics are untouched by an installed hook.
	if _, err := r.LookupA("missing.example.com"); err == nil {
		t.Fatal("NXDOMAIN lookup succeeded")
	}
}
