// Package dns is a DNS substrate: an RFC 1035 wire-format codec with
// name compression, an in-process authoritative server, and a stub
// resolver that counts queries and models the answer-set rotation that
// DNS load balancing performs in production.
//
// The paper's browser coalescing policies (§2.3) hinge on exactly which
// IP addresses a DNS answer returns and in what order; this package
// makes those mechanics explicit and testable.
package dns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Record types.
const (
	TypeA     uint16 = 1
	typeNS    uint16 = 2
	typeCNAME uint16 = 5
	typeTXT   uint16 = 16
	typeAAAA  uint16 = 28
)

// Classes.
const ClassINET uint16 = 1

// Response codes.
const (
	RcodeSuccess       = 0
	rcodeFormatError   = 1
	rcodeServerFailure = 2
	RcodeNameError     = 3 // NXDOMAIN
)

// Codec errors.
var (
	errTruncatedMessage = errors.New("dns: truncated message")
	errBadPointer       = errors.New("dns: bad compression pointer")
	errNameTooLong      = errors.New("dns: name exceeds 255 octets")
	errLabelTooLong     = errors.New("dns: label exceeds 63 octets")
	errBadLabel         = errors.New("dns: label byte has no unescaped presentation form")
)

// Header is the fixed 12-byte DNS message header.
type Header struct {
	ID      uint16
	QR      bool // response flag
	Opcode  uint8
	AA      bool // authoritative answer
	TC      bool // truncated
	RD      bool // recursion desired
	RA      bool // recursion available
	Rcode   uint8
	QDCount uint16
	ANCount uint16
	NSCount uint16
	ARCount uint16
}

// Question is a DNS question section entry.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// RR is a DNS resource record. Addr is used for A/AAAA records, Target
// for CNAME/NS, Text for TXT.
type RR struct {
	Name   string
	Type   uint16
	Class  uint16
	TTL    uint32
	Addr   netip.Addr
	Target string
	Text   string
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// maxNameWire is the longest name RFC 1035 §2.3.4 allows on the wire,
// length octets and the root label included: one octet more than the
// name's dotted form with its trailing dot.
const maxNameWire = 255

// nameOffsets tracks domain-name positions for compression pointers.
type nameOffsets map[string]int

// appendName appends name in wire format with RFC 1035 §4.1.4
// compression against previously written names.
func appendName(dst []byte, name string, offs nameOffsets) ([]byte, error) {
	name = canonicalName(name)
	if name == "." {
		return append(dst, 0), nil
	}
	if len(name)+1 > maxNameWire {
		return nil, errNameTooLong
	}
	labels := strings.Split(strings.TrimSuffix(name, "."), ".")
	for i := range labels {
		suffix := strings.Join(labels[i:], ".") + "."
		if off, ok := offs[suffix]; ok && off < 0x3fff {
			return binary.BigEndian.AppendUint16(dst, 0xc000|uint16(off)), nil
		}
		if len(dst) < 0x3fff {
			offs[suffix] = len(dst)
		}
		l := labels[i]
		if len(l) > 63 {
			return nil, errLabelTooLong
		}
		if l == "" {
			return nil, fmt.Errorf("dns: empty label in %q", name)
		}
		dst = append(dst, byte(len(l)))
		dst = append(dst, l...)
	}
	return append(dst, 0), nil
}

// readName decodes a possibly compressed name starting at off,
// returning the name and the offset just past it. Names are carried in
// their dotted form without escapes, so a label that form cannot hold —
// a '.', a space, a control or non-ASCII byte — is rejected, and upper
// case folds to lower as canonicalName folds it on the way out: what
// readName returns, appendName encodes back to the same name.
func readName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	after := -1
	hops := 0
	for {
		if off >= len(msg) {
			return "", 0, errTruncatedMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				after = off + 1
			}
			name := sb.String()
			if name == "" {
				name = "."
			}
			return name, after, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return "", 0, errTruncatedMessage
			}
			ptr := int(binary.BigEndian.Uint16(msg[off:off+2]) & 0x3fff)
			if !jumped {
				after = off + 2
			}
			if ptr >= off && !jumped || ptr >= len(msg) {
				return "", 0, errBadPointer
			}
			hops++
			if hops > 32 {
				return "", 0, errBadPointer
			}
			off = ptr
			jumped = true
		case b&0xc0 != 0:
			return "", 0, fmt.Errorf("dns: unsupported label type 0x%x", b&0xc0)
		default:
			n := int(b)
			if off+1+n > len(msg) {
				return "", 0, errTruncatedMessage
			}
			for _, c := range msg[off+1 : off+1+n] {
				switch {
				case 'A' <= c && c <= 'Z':
					c += 'a' - 'A'
				case c == '.' || c <= ' ' || c >= 0x7f:
					return "", 0, errBadLabel
				}
				sb.WriteByte(c)
			}
			sb.WriteByte('.')
			off += 1 + n
			if sb.Len()+1 > maxNameWire {
				return "", 0, errNameTooLong
			}
		}
	}
}

// Pack serializes the message.
func (m *Message) Pack() ([]byte, error) {
	h := m.Header
	h.QDCount = uint16(len(m.Questions))
	h.ANCount = uint16(len(m.Answers))
	h.NSCount = uint16(len(m.Authority))
	h.ARCount = uint16(len(m.Additional))

	buf := make([]byte, 0, 512)
	buf = binary.BigEndian.AppendUint16(buf, h.ID)
	var flags uint16
	if h.QR {
		flags |= 1 << 15
	}
	flags |= uint16(h.Opcode&0xf) << 11
	if h.AA {
		flags |= 1 << 10
	}
	if h.TC {
		flags |= 1 << 9
	}
	if h.RD {
		flags |= 1 << 8
	}
	if h.RA {
		flags |= 1 << 7
	}
	flags |= uint16(h.Rcode & 0xf)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, h.QDCount)
	buf = binary.BigEndian.AppendUint16(buf, h.ANCount)
	buf = binary.BigEndian.AppendUint16(buf, h.NSCount)
	buf = binary.BigEndian.AppendUint16(buf, h.ARCount)

	offs := nameOffsets{}
	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name, offs); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, q.Type)
		buf = binary.BigEndian.AppendUint16(buf, q.Class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if buf, err = appendRR(buf, rr, offs); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

func appendRR(buf []byte, rr RR, offs nameOffsets) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, rr.Name, offs); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, rr.Type)
	cl := rr.Class
	if cl == 0 {
		cl = ClassINET
	}
	buf = binary.BigEndian.AppendUint16(buf, cl)
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)

	rdlenAt := len(buf)
	buf = append(buf, 0, 0) // placeholder
	switch rr.Type {
	case TypeA:
		if !rr.Addr.Is4() {
			return nil, fmt.Errorf("dns: A record %s with non-IPv4 address %v", rr.Name, rr.Addr)
		}
		a := rr.Addr.As4()
		buf = append(buf, a[:]...)
	case typeAAAA:
		if !rr.Addr.Is6() || rr.Addr.Is4In6() {
			return nil, fmt.Errorf("dns: AAAA record %s with non-IPv6 address %v", rr.Name, rr.Addr)
		}
		a := rr.Addr.As16()
		buf = append(buf, a[:]...)
	case typeCNAME, typeNS:
		if buf, err = appendName(buf, rr.Target, offs); err != nil {
			return nil, err
		}
	case typeTXT:
		if len(rr.Text) > 255 {
			return nil, fmt.Errorf("dns: TXT segment too long")
		}
		buf = append(buf, byte(len(rr.Text)))
		buf = append(buf, rr.Text...)
	default:
		return nil, fmt.Errorf("dns: cannot pack record type %d", rr.Type)
	}
	binary.BigEndian.PutUint16(buf[rdlenAt:], uint16(len(buf)-rdlenAt-2))
	return buf, nil
}

// Unpack parses a wire-format message.
func Unpack(msg []byte) (*Message, error) {
	if len(msg) < 12 {
		return nil, errTruncatedMessage
	}
	var m Message
	m.Header.ID = binary.BigEndian.Uint16(msg[0:2])
	flags := binary.BigEndian.Uint16(msg[2:4])
	m.Header.QR = flags>>15&1 == 1
	m.Header.Opcode = uint8(flags >> 11 & 0xf)
	m.Header.AA = flags>>10&1 == 1
	m.Header.TC = flags>>9&1 == 1
	m.Header.RD = flags>>8&1 == 1
	m.Header.RA = flags>>7&1 == 1
	m.Header.Rcode = uint8(flags & 0xf)
	m.Header.QDCount = binary.BigEndian.Uint16(msg[4:6])
	m.Header.ANCount = binary.BigEndian.Uint16(msg[6:8])
	m.Header.NSCount = binary.BigEndian.Uint16(msg[8:10])
	m.Header.ARCount = binary.BigEndian.Uint16(msg[10:12])

	off := 12
	var err error
	for i := 0; i < int(m.Header.QDCount); i++ {
		var q Question
		q.Name, off, err = readName(msg, off)
		if err != nil {
			return nil, err
		}
		if off+4 > len(msg) {
			return nil, errTruncatedMessage
		}
		q.Type = binary.BigEndian.Uint16(msg[off : off+2])
		q.Class = binary.BigEndian.Uint16(msg[off+2 : off+4])
		off += 4
		m.Questions = append(m.Questions, q)
	}
	for _, sec := range []*[]RR{&m.Answers, &m.Authority, &m.Additional} {
		var count uint16
		switch sec {
		case &m.Answers:
			count = m.Header.ANCount
		case &m.Authority:
			count = m.Header.NSCount
		default:
			count = m.Header.ARCount
		}
		for i := 0; i < int(count); i++ {
			var rr RR
			rr, off, err = readRR(msg, off)
			if err != nil {
				return nil, err
			}
			*sec = append(*sec, rr)
		}
	}
	return &m, nil
}

func readRR(msg []byte, off int) (RR, int, error) {
	var rr RR
	var err error
	rr.Name, off, err = readName(msg, off)
	if err != nil {
		return rr, 0, err
	}
	if off+10 > len(msg) {
		return rr, 0, errTruncatedMessage
	}
	rr.Type = binary.BigEndian.Uint16(msg[off : off+2])
	rr.Class = binary.BigEndian.Uint16(msg[off+2 : off+4])
	rr.TTL = binary.BigEndian.Uint32(msg[off+4 : off+8])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8 : off+10]))
	off += 10
	if off+rdlen > len(msg) {
		return rr, 0, errTruncatedMessage
	}
	rdata := msg[off : off+rdlen]
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return rr, 0, fmt.Errorf("dns: A rdata length %d", rdlen)
		}
		rr.Addr = netip.AddrFrom4([4]byte(rdata))
	case typeAAAA:
		if rdlen != 16 {
			return rr, 0, fmt.Errorf("dns: AAAA rdata length %d", rdlen)
		}
		rr.Addr = netip.AddrFrom16([16]byte(rdata))
		if rr.Addr.Is4In6() {
			return rr, 0, fmt.Errorf("dns: AAAA rdata holds the IPv4-mapped address %v", rr.Addr)
		}
	case typeCNAME, typeNS:
		var end int
		rr.Target, end, err = readName(msg, off)
		if err != nil {
			return rr, 0, err
		}
		if end != off+rdlen {
			return rr, 0, fmt.Errorf("dns: record type %d: name ends at %d, rdata at %d", rr.Type, end, off+rdlen)
		}
	case typeTXT:
		if rdlen > 0 {
			n := int(rdata[0])
			if n+1 > rdlen {
				return rr, 0, errTruncatedMessage
			}
			rr.Text = string(rdata[1 : 1+n])
		}
	}
	return rr, off + rdlen, nil
}

// canonicalName lowercases and ensures a trailing dot.
func canonicalName(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" || name == "." {
		return "."
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	return name
}

// recordKey is the Authority's map key for name: its canonical form
// without the trailing dot. recordKey(name)+"." == canonicalName(name).
func recordKey(name string) string {
	return strings.TrimSuffix(strings.ToLower(strings.TrimSpace(name)), ".")
}
