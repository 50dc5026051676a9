// Package certs is the certificate substrate for the reproduction: a
// small certificate authority that issues real X.509 certificates with
// configurable Subject Alternative Name (SAN) sets, plus the SAN-set
// arithmetic the paper's §4.3 model and §5.1 deployment rely on:
//
//   - the one rule for whether a SAN list covers a host (Covers);
//   - diffing a certificate's SANs against the names a webpage needs;
//   - renewing certificates with added SANs;
//   - issuing byte-equalized control/experiment certificate pairs
//     (Figure 6), where the control group receives an unused name of
//     exactly the same byte length as the experiment group's third-party
//     domain;
//   - wire-size accounting, including the §6.5 observation that
//     certificates above the 16 KB TLS record size cost extra records
//     and round trips.
package certs

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"sort"
	"strings"
	"time"
)

// tlsRecordSize is the maximum TLS record payload (§6.5 of the paper).
const tlsRecordSize = 16 * 1024

// A CA issues leaf certificates chained to a self-signed root.
type CA struct {
	// Name is the issuer organization, e.g. "Cloudflare Inc ECC CA-3".
	Name string

	root    *x509.Certificate
	rootDER []byte
	key     *ecdsa.PrivateKey

	serial int64
	now    func() time.Time
}

// NewCA creates a certificate authority with a fresh self-signed root.
func NewCA(name string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("certs: generating CA key: %w", err)
	}
	ca := &CA{Name: name, key: key, serial: 1, now: time.Now}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject: pkix.Name{
			Organization: []string{name},
			CommonName:   name + " Root",
		},
		NotBefore:             ca.now().Add(-time.Hour),
		NotAfter:              ca.now().Add(10 * 365 * 24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("certs: creating CA root: %w", err)
	}
	root, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	ca.root = root
	ca.rootDER = der
	return ca, nil
}

// Root returns the CA root certificate for client trust pools.
func (ca *CA) Root() *x509.Certificate { return ca.root }

// Pool returns an x509.CertPool containing only this CA's root.
func (ca *CA) Pool() *x509.CertPool {
	p := x509.NewCertPool()
	p.AddCert(ca.root)
	return p
}

// A Leaf is an issued certificate plus its private key, ready for use in
// a tls.Config and inspectable for SAN analysis.
type Leaf struct {
	Cert   *x509.Certificate
	DER    []byte
	key    *ecdsa.PrivateKey
	issuer *CA
}

// Issue creates a leaf certificate. The first name is used as the
// subject common name; all names land in the SAN extension, as browsers
// require.
func (ca *CA) Issue(names ...string) (*Leaf, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("certs: certificate needs at least one name")
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	ca.serial++
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(ca.serial),
		Subject: pkix.Name{
			Organization: []string{ca.Name},
			CommonName:   names[0],
		},
		NotBefore:   ca.now().Add(-time.Hour),
		NotAfter:    ca.now().Add(90 * 24 * time.Hour),
		KeyUsage:    x509.KeyUsageDigitalSignature,
		ExtKeyUsage: []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:    dedupe(names),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.root, &key.PublicKey, ca.key)
	if err != nil {
		return nil, fmt.Errorf("certs: issuing %s: %w", names[0], err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Leaf{Cert: cert, DER: der, key: key, issuer: ca}, nil
}

// TLSCertificate assembles a tls.Certificate with the full chain.
func (l *Leaf) TLSCertificate() tls.Certificate {
	return tls.Certificate{
		Certificate: [][]byte{l.DER, l.issuer.rootDER},
		PrivateKey:  l.key,
		Leaf:        l.Cert,
	}
}

// SANs returns the certificate's DNS SAN entries, sorted.
func (l *Leaf) SANs() []string {
	out := append([]string(nil), l.Cert.DNSNames...)
	sort.Strings(out)
	return out
}

// WireSize returns the DER-encoded size of the leaf in bytes.
func (l *Leaf) WireSize() int { return len(l.DER) }

// ChainWireSize returns the total DER size of leaf + issuer chain.
func (l *Leaf) ChainWireSize() int { return len(l.DER) + len(l.issuer.rootDER) }

// TLSRecords returns how many TLS records the certificate chain needs
// during the handshake (§6.5: chains above 16 KB spill into additional
// records and can cost extra round trips).
func (l *Leaf) TLSRecords() int {
	n := l.ChainWireSize()
	return (n + tlsRecordSize - 1) / tlsRecordSize
}

// EqualLengthControlName derives an unused control-group domain of
// exactly the same byte length as target (Figure 6): the target's first
// label is prefixed with zeros after dropping leading characters, e.g.
// "unpopular.resource.com" -> "00popular.resource.com". The result never
// equals the target.
func EqualLengthControlName(target string, pad int) string {
	if pad <= 0 {
		pad = 2
	}
	labels := strings.SplitN(target, ".", 2)
	first := labels[0]
	if pad > len(first) {
		pad = len(first)
	}
	control := strings.Repeat("0", pad) + first[pad:]
	if len(labels) == 2 {
		control += "." + labels[1]
	}
	if control == target {
		// All-zero label collided; flip to "1"s.
		control = strings.Repeat("1", pad) + first[pad:]
		if len(labels) == 2 {
			control += "." + labels[1]
		}
	}
	return control
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		s = strings.ToLower(strings.TrimSpace(s))
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}
