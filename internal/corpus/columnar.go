package corpus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/netip"
	"sync"

	"respectorigin/internal/har"
)

// The columnar encoding: a magic header, then a sequence of page
// blocks, then an end marker.
//
//	file  := magic block* end
//	magic := "RCORP\x00" version:byte   (version = 1)
//	block := uvarint(npages>0) col{4}   (meta, entries, dns, sans)
//	col   := uvarint(len) bytes
//	end   := uvarint(0) uvarint(total pages)
//
// Within a block the four column streams carry, page by page:
//
//	meta    := url host rank dom_ms on_ms extra_dns extra_tls nentries
//	entries := nentries × fixed entry fields (timings, flags, IP, …)
//	dns     := nentries × (naddr naddr×addr)   — the DNS answer sets
//	sans    := nentries × (nsan nsan×string)   — certificate SANs
//
// Strings are uvarint-length-prefixed bytes; floats are IEEE 754 bits
// little-endian (exact round trip, so re-encoding to NDJSON reproduces
// encoding/json's shortest float rendering byte for byte); addresses
// are raw 4/16-byte forms (17 with a zone). Splitting entries from
// their variable-length answer and SAN sets keeps the hot fixed-stride
// entry decode tight while the rarely-large streams stay out of its
// way.

// columnarVersion is the version byte written after the magic prefix.
const columnarVersion = 1

const (
	columnarMagicPrefix = "RCORP\x00"
	columnarMagic       = columnarMagicPrefix + "\x01" // prefix + version
)

// columnarBlockPages is the number of pages batched per block: large
// enough to amortize framing, small enough that a streaming reader's
// working set stays a few megabytes regardless of corpus size.
const columnarBlockPages = 256

const (
	entrySecure = 1 << iota
	entryNewDNS
	entryNewTLS
	entryRenderBlocking
)

// The four column streams of a block, in file order.
const (
	colMeta = iota
	colEntries
	colDNS
	colSANs
	numCols
)

var colNames = [numCols]string{"meta", "entries", "dns", "sans"}

// --- column storage ---

// colSet is one block's four columns, in file order. Sets are lent
// whole, so each column comes back as storage of its own kind: an
// entries column's capacity serves the next entries column rather than
// a meta column a fraction its size.
type colSet [numCols][]byte

// The column store's two bounds. keepSets covers the scenario matrix's
// three archetypes, each with a writer and a reader open at once.
// keepColumnBytes holds the largest column of a 256-page block of
// crawled pages: entries, ≈ 4.7 MB, which a writer grows to 8 MiB. A
// column that grew past it is dropped when its set comes back, so a
// huge or hostile stream cannot pin memory. The store retains at most
// keepSets × numCols × keepColumnBytes = 6 × 4 × 8 MiB = 192 MiB; the
// matrix's sets hold ≈ 2.3 MiB each and a crawl's ≈ 8.7 MiB.
const (
	keepSets        = 6
	keepColumnBytes = 8 << 20
)

// columns is the process's store of column sets. A columnar writer
// takes a set at its first Write and gives it back at Close; a reader
// takes one at its first block and gives it back at the end marker, at
// its first error or at Close. Each hand-back happens once, and the
// codec that gave a set back never touches it again. Decoded pages copy
// every byte they keep out of the columns, so a recycled set is never
// visible through a page.
//
// A mutex-guarded free list rather than a sync.Pool: the race detector
// makes a Pool drop Puts at random, and the store's reuse is what the
// package's allocation budgets measure, under -race too.
var columns colStore

type colStore struct {
	mu   sync.Mutex
	n    int // sets held, in sets[:n]
	sets [keepSets]colSet
}

// take lends the most recently returned set, or an empty one.
func (s *colStore) take() colSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return colSet{}
	}
	s.n--
	set := s.sets[s.n]
	s.sets[s.n] = colSet{}
	return set
}

// give takes a set back, emptied, without any column above
// keepColumnBytes. A set with nothing left to lend, or one beyond
// keepSets, is dropped.
func (s *colStore) give(set colSet) {
	kept := false
	for i, c := range set {
		if cap(c) > keepColumnBytes {
			c = nil
		}
		set[i] = c[:0]
		kept = kept || cap(c) > 0
	}
	if !kept {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < keepSets {
		s.sets[s.n] = set
		s.n++
	}
}

// --- encoding ---

// colBuf is an append-only column buffer. Its storage is borrowed from
// the column store, so a writer's columns start at the capacity an
// earlier block left them, and every append goes through room, which
// at least doubles a full buffer: append's own step for large slices
// is about 1.25×, which copies a multi-megabyte block column several
// times over on its way up.
type colBuf struct{ b []byte }

// room returns the buffer with space for n more bytes.
func (c *colBuf) room(n int) []byte {
	if len(c.b)+n > cap(c.b) {
		b := make([]byte, len(c.b), max(2*cap(c.b), len(c.b)+n, 64))
		copy(b, c.b)
		c.b = b
	}
	return c.b
}

func (c *colBuf) reset()           { c.b = c.b[:0] }
func (c *colBuf) uvarint(x uint64) { c.b = binary.AppendUvarint(c.room(binary.MaxVarintLen64), x) }
func (c *colBuf) svarint(x int64)  { c.b = binary.AppendVarint(c.room(binary.MaxVarintLen64), x) }
func (c *colBuf) f64(v float64) {
	c.b = binary.LittleEndian.AppendUint64(c.room(8), math.Float64bits(v))
}
func (c *colBuf) byte(v byte)    { c.b = append(c.room(1), v) }
func (c *colBuf) bytes(v []byte) { c.b = append(c.room(len(v)), v...) }
func (c *colBuf) str(s string) {
	c.uvarint(uint64(len(s)))
	c.b = append(c.room(len(s)), s...)
}

func (c *colBuf) addr(a netip.Addr) {
	switch {
	case !a.IsValid():
		c.byte(0)
	case a.Zone() != "":
		c.byte(17)
		v := a.WithZone("").As16()
		c.bytes(v[:])
		c.str(a.Zone())
	case a.Is4():
		c.byte(4)
		v := a.As4()
		c.bytes(v[:])
	default:
		c.byte(16)
		v := a.As16()
		c.bytes(v[:])
	}
}

type columnarWriter struct {
	w       io.Writer
	cols    [numCols]colBuf
	held    bool // cols is a set borrowed from the column store
	hdr     []byte
	n       int // pages in the open block
	total   int
	started bool
	closed  bool
	err     error
}

// newColumnarWriter returns a Writer emitting the columnar binary
// encoding to w. Close writes the end marker and must be checked.
func newColumnarWriter(w io.Writer) Writer { return &columnarWriter{w: w} }

func (cw *columnarWriter) start() error {
	if cw.started {
		return nil
	}
	cw.started = true
	_, err := io.WriteString(cw.w, columnarMagic)
	return err
}

func (cw *columnarWriter) Write(p *har.Page) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return fmt.Errorf("corpus: write to closed columnar writer")
	}
	if err := cw.start(); err != nil {
		cw.err = err
		return err
	}
	if !cw.held {
		set := columns.take()
		for i := range cw.cols {
			cw.cols[i].b = set[i]
		}
		cw.held = true
	}
	m := &cw.cols[colMeta]
	m.str(p.URL)
	m.str(p.Host)
	m.uvarint(uint64(p.Rank))
	m.f64(p.DOMLoadMs)
	m.f64(p.OnLoadMs)
	m.uvarint(uint64(p.ExtraDNS))
	m.uvarint(uint64(p.ExtraTLS))
	m.uvarint(uint64(len(p.Entries)))
	c, dns, sans := &cw.cols[colEntries], &cw.cols[colDNS], &cw.cols[colSANs]
	for i := range p.Entries {
		e := &p.Entries[i]
		c.f64(e.StartedMs)
		c.str(e.URL)
		c.str(e.Host)
		c.str(e.Method)
		c.str(e.Protocol)
		c.svarint(int64(e.Status))
		c.str(e.MimeType)
		c.svarint(e.BodySize)
		var flags byte
		if e.Secure {
			flags |= entrySecure
		}
		if e.NewDNS {
			flags |= entryNewDNS
		}
		if e.NewTLS {
			flags |= entryNewTLS
		}
		if e.RenderBlocking {
			flags |= entryRenderBlocking
		}
		c.byte(flags)
		c.addr(e.ServerIP)
		c.uvarint(uint64(e.ServerASN))
		c.str(e.CertIssuer)
		c.svarint(int64(e.Initiator))
		t := &e.Timings
		c.f64(t.Blocked)
		c.f64(t.DNS)
		c.f64(t.Connect)
		c.f64(t.SSL)
		c.f64(t.Send)
		c.f64(t.Wait)
		c.f64(t.Receive)

		dns.uvarint(uint64(len(e.DNSAnswer)))
		for _, a := range e.DNSAnswer {
			dns.addr(a)
		}
		sans.uvarint(uint64(len(e.CertSANs)))
		for _, s := range e.CertSANs {
			sans.str(s)
		}
	}
	cw.n++
	cw.total++
	if cw.n >= columnarBlockPages {
		if err := cw.flushBlock(); err != nil {
			cw.err = err
			return err
		}
	}
	return nil
}

func (cw *columnarWriter) flushBlock() error {
	if cw.n == 0 {
		return nil
	}
	cw.hdr = cw.hdr[:0]
	cw.hdr = binary.AppendUvarint(cw.hdr, uint64(cw.n))
	for i := range cw.cols {
		cw.hdr = binary.AppendUvarint(cw.hdr, uint64(len(cw.cols[i].b)))
	}
	if _, err := cw.w.Write(cw.hdr); err != nil {
		return err
	}
	for i := range cw.cols {
		c := &cw.cols[i]
		if _, err := cw.w.Write(c.b); err != nil {
			return err
		}
		c.reset()
	}
	cw.n = 0
	return nil
}

// Close writes the end marker and gives the writer's columns back to
// the store, on failure too: a failed writer writes nothing more.
func (cw *columnarWriter) Close() error {
	defer cw.release()
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return nil
	}
	cw.closed = true
	if err := cw.start(); err != nil {
		cw.err = err
		return err
	}
	if err := cw.flushBlock(); err != nil {
		cw.err = err
		return err
	}
	var end []byte
	end = binary.AppendUvarint(end, 0)
	end = binary.AppendUvarint(end, uint64(cw.total))
	if _, err := cw.w.Write(end); err != nil {
		cw.err = err
		return err
	}
	return nil
}

// release gives the borrowed set back, once.
func (cw *columnarWriter) release() {
	if !cw.held {
		return
	}
	var set colSet
	for i := range cw.cols {
		set[i], cw.cols[i].b = cw.cols[i].b, nil
	}
	cw.held = false
	columns.give(set)
}

// --- decoding ---

var errTruncated = fmt.Errorf("corpus: truncated columnar stream")

// colDec decodes one column's bytes with a sticky error, so the
// per-field reads stay branch-light on the hot path.
type colDec struct {
	b   []byte
	off int
	err error
}

func (d *colDec) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *colDec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *colDec) svarint() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *colDec) f64() float64 {
	if d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

func (d *colDec) byte() byte {
	if d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *colDec) bytes(n int) []byte {
	if n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// strBytes reads a string's bytes in place: they alias the column and
// die with the block.
func (d *colDec) strBytes() []byte {
	return d.bytes(int(d.uvarint()))
}

func (d *colDec) str() string {
	b := d.strBytes()
	if d.err != nil {
		return ""
	}
	return string(b)
}

// text reads a string into *buf and returns where it went.
func (d *colDec) text(buf *[]byte) span {
	b := d.strBytes()
	if d.err != nil {
		return span{}
	}
	off := len(*buf)
	*buf = append(*buf, b...)
	return span{off, len(b)}
}

// strInterned reads a string drawn from a small value set (methods,
// protocol names, MIME types, issuers) through the intern table so
// repeated values share one allocation across the whole corpus.
func (d *colDec) strInterned(in map[string]string) string {
	b := d.strBytes()
	if d.err != nil || len(b) == 0 {
		return ""
	}
	if s, ok := in[string(b)]; ok { // compiler elides the conversion
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

func (d *colDec) addr() netip.Addr {
	switch n := d.byte(); n {
	case 0:
		return netip.Addr{}
	case 4:
		b := d.bytes(4)
		if d.err != nil {
			return netip.Addr{}
		}
		return netip.AddrFrom4([4]byte(b))
	case 16:
		b := d.bytes(16)
		if d.err != nil {
			return netip.Addr{}
		}
		return netip.AddrFrom16([16]byte(b))
	case 17:
		b := d.bytes(16)
		if d.err != nil {
			return netip.Addr{}
		}
		a := netip.AddrFrom16([16]byte(b))
		return a.WithZone(d.str())
	default:
		d.fail()
		return netip.Addr{}
	}
}

func (d *colDec) done() bool { return d.err == nil && d.off == len(d.b) }

func (d *colDec) remaining() int { return len(d.b) - d.off }

// minEntryBytes is the smallest encoding of one entry in its column:
// eight floats, six empty strings, an invalid address and six one-byte
// integers. It bounds the entries a page may declare by the bytes that
// are there to back them.
const minEntryBytes = 8*8 + 6 + 1 + 6

// span is a run of columnarReader.text.
type span struct{ off, n int }

func (s span) of(text string) string { return text[s.off : s.off+s.n] }

// entryRefs is what a decoded entry owes to the page's shared storage
// once that exists.
type entryRefs struct {
	url, host   span
	naddr, nsan int
}

type columnarReader struct {
	br        *bufio.Reader
	cols      [numCols]colDec
	bufs      colSet // block column storage, borrowed from the column store
	held      bool   // bufs is borrowed
	remaining int    // pages left in the open block
	read      int    // pages decoded so far
	intern    map[string]string
	started   bool
	done      bool
	err       error

	// The page being decoded gathers its text, answer sets and SANs
	// here; decodePage copies each out once, into storage only that page
	// references.
	text  []byte
	refs  []entryRefs
	addrs []netip.Addr
	sans  []span
}

// newColumnarReader returns a Reader decoding the columnar binary
// encoding from r.
func newColumnarReader(r io.Reader) Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return &columnarReader{br: br, intern: make(map[string]string, 64)}
}

func (cr *columnarReader) fail(err error) (*har.Page, error) {
	cr.err = err
	cr.release()
	return nil, err
}

var errReaderClosed = fmt.Errorf("corpus: read from closed columnar reader")

// release gives the borrowed columns back, once, and forgets them: no
// decoder is left pointing into a set another codec may now hold.
func (cr *columnarReader) release() {
	if !cr.held {
		return
	}
	columns.give(cr.bufs)
	cr.bufs, cr.cols, cr.held = colSet{}, [numCols]colDec{}, false
}

func (cr *columnarReader) Next() (*har.Page, error) {
	if cr.err != nil {
		return nil, cr.err
	}
	if cr.done {
		return nil, io.EOF
	}
	if !cr.started {
		var head [len(columnarMagic)]byte
		if _, err := io.ReadFull(cr.br, head[:]); err != nil {
			return cr.fail(fmt.Errorf("corpus: reading columnar header: %w", err))
		}
		if string(head[:len(columnarMagicPrefix)]) != columnarMagicPrefix {
			return cr.fail(fmt.Errorf("corpus: not a columnar corpus (bad magic)"))
		}
		if v := head[len(columnarMagic)-1]; v != columnarVersion {
			return cr.fail(fmt.Errorf("corpus: columnar format version %d not supported (this build reads version %d)", v, columnarVersion))
		}
		cr.started = true
	}
	if cr.remaining == 0 {
		if err := cr.readBlock(); err == io.EOF {
			cr.release()
			return nil, err
		} else if err != nil {
			return cr.fail(err)
		}
	}
	p, err := cr.decodePage()
	if err != nil {
		return cr.fail(err)
	}
	cr.remaining--
	cr.read++
	if cr.remaining == 0 {
		// A block's columns must be consumed exactly by its pages.
		for i := range cr.cols {
			if !cr.cols[i].done() {
				return cr.fail(fmt.Errorf("corpus: columnar %s column not fully consumed (corrupt block)", colNames[i]))
			}
		}
	}
	return p, nil
}

// readBlock loads the next block's columns, or observes the end marker
// and returns io.EOF after verifying the trailing page total.
func (cr *columnarReader) readBlock() error {
	npages, err := binary.ReadUvarint(cr.br)
	if err != nil {
		return fmt.Errorf("corpus: reading columnar block header: %w", err)
	}
	if npages == 0 {
		total, err := binary.ReadUvarint(cr.br)
		if err != nil {
			return fmt.Errorf("corpus: reading columnar trailer: %w", err)
		}
		if int(total) != cr.read {
			return fmt.Errorf("corpus: columnar trailer records %d pages, stream carried %d", total, cr.read)
		}
		cr.done = true
		return io.EOF
	}
	var lens [numCols]uint64
	for i := range lens {
		if lens[i], err = binary.ReadUvarint(cr.br); err != nil {
			return fmt.Errorf("corpus: reading columnar block header: %w", err)
		}
		if lens[i] > 1<<31 {
			return fmt.Errorf("corpus: columnar column block of %d bytes exceeds the 2 GiB bound", lens[i])
		}
	}
	if !cr.held {
		cr.bufs, cr.held = columns.take(), true
	}
	for i := range cr.cols {
		if cr.bufs[i], err = readColumn(cr.br, cr.bufs[i], int(lens[i])); err != nil {
			return fmt.Errorf("corpus: reading columnar block: %w", err)
		}
		cr.cols[i] = colDec{b: cr.bufs[i]}
	}
	cr.remaining = int(npages)
	return nil
}

// readColumn reads an n-byte column into buf's storage, which the
// column store lent and an earlier block may already have grown. A
// header may declare any length up to the 2 GiB bound, so storage
// beyond what buf already has grows geometrically with the bytes that
// actually arrive: a truncated or hostile stream costs memory in
// proportion to its own size, not to the length it claims.
func readColumn(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:min(cap(buf), n)]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	for len(buf) < n {
		step := min(max(len(buf), 1<<16), n-len(buf))
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// place puts an entry's host into the page text and returns where: the
// URL read just before nearly always carries it after "://", and then
// the host costs no bytes of its own.
func (cr *columnarReader) place(url span, host []byte) span {
	u := cr.text[url.off : url.off+url.n]
	if i := bytes.Index(u, schemeSep); i >= 0 && bytes.HasPrefix(u[i+len(schemeSep):], host) {
		return span{url.off + i + len(schemeSep), len(host)}
	}
	off := len(cr.text)
	cr.text = append(cr.text, host...)
	return span{off, len(host)}
}

var schemeSep = []byte("://")

func (cr *columnarReader) decodePage() (*har.Page, error) {
	m, c, dns, sans := &cr.cols[colMeta], &cr.cols[colEntries], &cr.cols[colDNS], &cr.cols[colSANs]
	cr.text, cr.refs, cr.addrs, cr.sans = cr.text[:0], cr.refs[:0], cr.addrs[:0], cr.sans[:0]
	pageURL := m.text(&cr.text)
	pageHost := cr.place(pageURL, m.strBytes())
	p := &har.Page{Rank: int(m.uvarint())}
	p.DOMLoadMs = m.f64()
	p.OnLoadMs = m.f64()
	p.ExtraDNS = int(m.uvarint())
	p.ExtraTLS = int(m.uvarint())
	nent := int(m.uvarint())
	if m.err != nil {
		return nil, m.err
	}
	if nent < 0 || nent > c.remaining()/minEntryBytes {
		return nil, fmt.Errorf("corpus: columnar page declares %d entries, column has %d bytes left", nent, c.remaining())
	}
	if nent > 0 {
		p.Entries = make([]har.Entry, nent)
	}
	for i := range p.Entries {
		e := &p.Entries[i]
		e.StartedMs = c.f64()
		url := c.text(&cr.text)
		refs := entryRefs{url: url, host: cr.place(url, c.strBytes())}
		e.Method = c.strInterned(cr.intern)
		e.Protocol = c.strInterned(cr.intern)
		e.Status = int(c.svarint())
		e.MimeType = c.strInterned(cr.intern)
		e.BodySize = c.svarint()
		flags := c.byte()
		e.Secure = flags&entrySecure != 0
		e.NewDNS = flags&entryNewDNS != 0
		e.NewTLS = flags&entryNewTLS != 0
		e.RenderBlocking = flags&entryRenderBlocking != 0
		e.ServerIP = c.addr()
		e.ServerASN = uint32(c.uvarint())
		e.CertIssuer = c.strInterned(cr.intern)
		e.Initiator = int(c.svarint())
		t := &e.Timings
		t.Blocked = c.f64()
		t.DNS = c.f64()
		t.Connect = c.f64()
		t.SSL = c.f64()
		t.Send = c.f64()
		t.Wait = c.f64()
		t.Receive = c.f64()

		// Every address and every SAN is at least one byte of its column.
		if refs.naddr = int(dns.uvarint()); refs.naddr < 0 || refs.naddr > dns.remaining() {
			return nil, fmt.Errorf("corpus: columnar DNS answer set of %d exceeds column size", refs.naddr)
		}
		for j := 0; j < refs.naddr; j++ {
			cr.addrs = append(cr.addrs, dns.addr())
		}
		if refs.nsan = int(sans.uvarint()); refs.nsan < 0 || refs.nsan > sans.remaining() {
			return nil, fmt.Errorf("corpus: columnar SAN set of %d exceeds column size", refs.nsan)
		}
		for j := 0; j < refs.nsan; j++ {
			cr.sans = append(cr.sans, sans.text(&cr.text))
		}
		cr.refs = append(cr.refs, refs)
	}
	for i := range cr.cols {
		if err := cr.cols[i].err; err != nil {
			return nil, err
		}
	}

	// The page owns one string, one address slice and one SAN slice;
	// every URL, host, answer set and SAN list is a piece of those, so a
	// page kept alone keeps nothing of its neighbours or of the block.
	text := string(cr.text)
	p.URL, p.Host = pageURL.of(text), pageHost.of(text)
	addrs := append([]netip.Addr(nil), cr.addrs...)
	var names []string
	if len(cr.sans) > 0 {
		names = make([]string, len(cr.sans))
		for i, s := range cr.sans {
			names[i] = s.of(text)
		}
	}
	for i := range p.Entries {
		e, refs := &p.Entries[i], &cr.refs[i]
		e.URL, e.Host = refs.url.of(text), refs.host.of(text)
		if n := refs.naddr; n > 0 {
			e.DNSAnswer, addrs = addrs[:n:n], addrs[n:]
		}
		if n := refs.nsan; n > 0 {
			e.CertSANs, names = names[:n:n], names[n:]
		}
	}
	return p, nil
}

// Close gives the reader's columns back to the store. A reader closed
// before its end marker reads nothing more.
func (cr *columnarReader) Close() error {
	if cr.err == nil && !cr.done {
		cr.err = errReaderClosed
	}
	cr.release()
	return nil
}
