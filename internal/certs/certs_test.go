package certs

import (
	"crypto/x509"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("Test CA")
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestIssueAndVerify(t *testing.T) {
	ca := mustCA(t)
	leaf, err := ca.Issue("www.example.com", "example.com", "*.cdn.example.com")
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"www.example.com", "example.com", "img.cdn.example.com"} {
		if !Covers(leaf.Cert.DNSNames, host) {
			t.Errorf("certificate does not cover %s", host)
		}
	}
	if Covers(leaf.Cert.DNSNames, "other.example.org") {
		t.Error("certificate covers unrelated host")
	}
	// The chain must verify against the CA pool.
	if _, err := leaf.Cert.Verify(verifyOpts(ca)); err != nil {
		t.Errorf("chain verification failed: %v", err)
	}
}

func TestIssueRequiresName(t *testing.T) {
	ca := mustCA(t)
	if _, err := ca.Issue(); err == nil {
		t.Error("issuing a certificate with no names succeeded")
	}
}

func TestIssueDedupesNames(t *testing.T) {
	ca := mustCA(t)
	leaf, err := ca.Issue("a.example", "A.example", " a.example ", "b.example")
	if err != nil {
		t.Fatal(err)
	}
	if got := leaf.SANs(); len(got) != 2 {
		t.Errorf("SANs = %v, want deduped pair", got)
	}
}

// The §5.1 certificate modification reissues a leaf with its SANs plus
// the added names, and leaves the original as it was.
func TestRenewAddsSANs(t *testing.T) {
	ca := mustCA(t)
	leaf, err := ca.Issue("site.example")
	if err != nil {
		t.Fatal(err)
	}
	renewed, err := ca.Issue(slices.Concat(leaf.Cert.DNSNames, []string{"third-party.example", "fonts.example"})...)
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"site.example", "third-party.example", "fonts.example"} {
		if !Covers(renewed.Cert.DNSNames, host) {
			t.Errorf("renewed cert missing %s", host)
		}
	}
	if len(renewed.SANs()) != 3 {
		t.Errorf("SANs = %v", renewed.SANs())
	}
	// The original is untouched.
	if Covers(leaf.Cert.DNSNames, "third-party.example") {
		t.Error("renewal mutated original leaf")
	}
}

func TestEqualLengthControlName(t *testing.T) {
	// The Figure 6 example: unpopular.resource.com -> 00popular.resource.com.
	got := EqualLengthControlName("unpopular.resource.com", 2)
	if got != "00popular.resource.com" {
		t.Errorf("control name = %q", got)
	}
	if len(got) != len("unpopular.resource.com") {
		t.Error("length not preserved")
	}
}

func TestEqualLengthControlNameProperties(t *testing.T) {
	f := func(label string, domain string, pad uint8) bool {
		label = sanitizeLabel(label)
		domain = sanitizeLabel(domain)
		if label == "" || domain == "" {
			return true
		}
		target := label + "." + domain + ".com"
		got := EqualLengthControlName(target, int(pad%5)+1)
		return len(got) == len(target) && got != target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sanitizeLabel(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' {
			b.WriteRune(r)
		}
	}
	if b.Len() > 20 {
		return b.String()[:20]
	}
	return b.String()
}

func TestByteEqualizedReissue(t *testing.T) {
	// §5.1: experiment certs gain the third-party domain; control certs
	// gain an unused domain of identical byte length. Wire-size growth
	// must match to within DER length-encoding noise.
	ca := mustCA(t)
	third := "cdnjs.cloudflare.com"
	control := EqualLengthControlName(third, 2)
	if len(control) != len(third) {
		t.Fatal("control name length mismatch")
	}

	base1, _ := ca.Issue("site-one.example")
	base2, _ := ca.Issue("site-two.example")
	exp, err := ca.Issue("site-one.example", third)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := ca.Issue("site-two.example", control)
	if err != nil {
		t.Fatal(err)
	}
	growExp := exp.WireSize() - base1.WireSize()
	growCtl := ctl.WireSize() - base2.WireSize()
	if diff := growExp - growCtl; diff < -4 || diff > 4 {
		t.Errorf("asymmetric growth: experiment +%d, control +%d", growExp, growCtl)
	}
}

func TestTLSRecordAccounting(t *testing.T) {
	ca := mustCA(t)
	small, _ := ca.Issue("small.example")
	if small.TLSRecords() != 1 {
		t.Errorf("small cert records = %d", small.TLSRecords())
	}
	// A certificate with hundreds of long SANs exceeds one TLS record.
	names := make([]string, 0, 600)
	names = append(names, "big.example")
	for i := 0; i < 599; i++ {
		names = append(names, strings.Repeat("x", 20)+"-"+strings.Repeat("s", i%10)+num(i)+".huge-certificate-test.example")
	}
	big, err := ca.Issue(names...)
	if err != nil {
		t.Fatal(err)
	}
	if big.WireSize() <= tlsRecordSize {
		t.Skipf("big cert only %d bytes", big.WireSize())
	}
	if big.TLSRecords() < 2 {
		t.Errorf("big cert records = %d, size %d", big.TLSRecords(), big.WireSize())
	}
}

func num(i int) string {
	const digits = "0123456789"
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{digits[i%10]}, b...)
		i /= 10
	}
	return string(b)
}

func TestTLSCertificateUsable(t *testing.T) {
	ca := mustCA(t)
	leaf, _ := ca.Issue("h2.example")
	tc := leaf.TLSCertificate()
	if len(tc.Certificate) != 2 {
		t.Errorf("chain length = %d", len(tc.Certificate))
	}
	if tc.PrivateKey == nil || tc.Leaf == nil {
		t.Error("incomplete tls.Certificate")
	}
}

func verifyOpts(ca *CA) x509.VerifyOptions {
	return x509.VerifyOptions{Roots: ca.Pool()}
}
