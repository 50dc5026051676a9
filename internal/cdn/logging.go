package cdn

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"respectorigin/internal/lazyrand"
	"respectorigin/internal/parallel"
)

// logRecord is one sampled request log line, carrying exactly the
// fields §5.2 describes: the connection identifier, the truncated
// Referer (domain only, privacy), the SNI≠Host coalescing flag bit,
// the treatment label, the request's arrival order on its connection,
// and a user-agent family for the §5.3 Firefox filter.
type logRecord struct {
	Day           int
	ConnID        uint64
	SNI           string
	Host          string
	RefererHost   string // truncated at the domain
	ArrivalOrder  int    // 1-based order within the connection
	FlagHostNeSNI bool
	Treatment     Treatment
	UserAgent     string // "firefox", "chrome", ...
}

// logEntry is how the log stores a logRecord: 40 bytes with no
// pointers, so the collector never scans the log and a write runs no
// write barrier. The four names are indices into the pipeline's name
// table, and FlagHostNeSNI is not stored: a name has one index, so the
// flag is SNI != Host.
type logEntry struct {
	ConnID                            uint64
	Day, ArrivalOrder                 int32
	SNI, Host, RefererHost, UserAgent uint32
	Treatment                         uint8
}

// logBlockRecords is how many records one block of the sampled log
// holds (40 KiB). A deployment day at SampleRate 1 holds tens of
// thousands of records; blocks are filled in place and never copied,
// where one growing slice would copy and clear the log several times
// over, and a drained day's blocks are refilled by the next.
const logBlockRecords = 1024

type logBlock [logBlockRecords]logEntry

// LogPipeline samples a fixed fraction of requests, as the production
// pipeline did (1%).
type LogPipeline struct {
	mu   sync.Mutex
	rate float64
	rng  *rand.Rand
	// blocks hold the records since the last Reset or drain, held of
	// them, in log order from the first slot. Blocks past the last record
	// are kept for a later day to refill.
	blocks []*logBlock
	held   int64
	// names is the name table the entries index, and index its inverse.
	// Both only grow, and only under mu; Reset keeps them.
	names []string
	index map[string]uint32

	// total and sampled count every request and every kept record since
	// the last Reset, drained or not.
	total   int64
	sampled int64
}

// newLogPipeline creates a pipeline with the given sampling rate.
func newLogPipeline(rate float64, seed int64) *LogPipeline {
	// The empty name is index 0, so a zero entry names nothing.
	return &LogPipeline{rate: rate, rng: lazyrand.New(seed), names: []string{""}, index: map[string]uint32{"": 0}}
}

// observeRecord ingests one request, sampling it with the configured rate. A
// Day or ArrivalOrder outside int32, or a Treatment outside uint8,
// panics rather than being truncated.
func (lp *LogPipeline) observeRecord(r logRecord) {
	e := logEntry{
		ConnID:       r.ConnID,
		Day:          narrow[int32]("Day", r.Day),
		ArrivalOrder: narrow[int32]("ArrivalOrder", r.ArrivalOrder),
		Treatment:    narrow[uint8]("Treatment", int(r.Treatment)),
	}
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if lp.lockedDraw() {
		e.SNI, e.Host = lp.lockedName(r.SNI), lp.lockedName(r.Host)
		e.RefererHost, e.UserAgent = lp.lockedName(r.RefererHost), lp.lockedName(r.UserAgent)
		lp.lockedAppend(e)
	}
}

// observe is Observe for an entry whose names are already indexed.
func (lp *LogPipeline) observe(e logEntry) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if lp.lockedDraw() {
		lp.lockedAppend(e)
	}
}

// narrow converts a record field to its stored width, panicking rather
// than truncating.
func narrow[T int32 | uint8](field string, v int) T {
	n := T(v)
	if int(n) != v {
		panic(fmt.Sprintf("cdn: log record %s %d does not fit in %T", field, v, n))
	}
	return n
}

// lockedName returns name's index in the name table, adding it if new.
func (lp *LogPipeline) lockedName(name string) uint32 {
	i, ok := lp.index[name]
	if !ok {
		i = uint32(len(lp.names))
		lp.names = append(lp.names, name)
		lp.index[name] = i
	}
	return i
}

// lockedDraw counts one request and draws whether the sampler keeps it.
func (lp *LogPipeline) lockedDraw() bool {
	lp.total++
	return lp.rng.Float64() < lp.rate
}

// lockedAppend writes e at the end of the log, allocating a block only
// when every block is full.
func (lp *LogPipeline) lockedAppend(e logEntry) {
	if lp.held == int64(len(lp.blocks))*logBlockRecords {
		lp.blocks = append(lp.blocks, new(logBlock))
	}
	put(lp.blocks, lp.held, e)
	lp.held++
	lp.sampled++
}

// put writes e into log position i of blocks.
func put(blocks []*logBlock, i int64, e logEntry) {
	blocks[i/logBlockRecords][i%logBlockRecords] = e
}

// decode fills r with the record e stores over the name table names.
func (e *logEntry) decode(names []string, r *logRecord) {
	*r = logRecord{
		Day:           int(e.Day),
		ConnID:        e.ConnID,
		SNI:           names[e.SNI],
		Host:          names[e.Host],
		RefererHost:   names[e.RefererHost],
		ArrivalOrder:  int(e.ArrivalOrder),
		FlagHostNeSNI: e.SNI != e.Host,
		Treatment:     Treatment(e.Treatment),
		UserAgent:     names[e.UserAgent],
	}
}

// lockedGrow returns the pipeline's blocks extended to hold held
// records, any new blocks allocated across workers.
func (lp *LogPipeline) lockedGrow(held int64, workers int) []*logBlock {
	have := len(lp.blocks)
	need := int((held + logBlockRecords - 1) / logBlockRecords)
	if need <= have {
		return lp.blocks
	}
	blocks := slices.Grow(lp.blocks, need-have)[:need]
	parallel.Do(need-have, workers, func(i int) { blocks[have+i] = new(logBlock) })
	return blocks
}

// Totals reports total and sampled request counts since the last Reset,
// drained records included.
func (lp *LogPipeline) Totals() (total, sampled int64) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return lp.total, lp.sampled
}

// each calls fn on every record sampled since the last Reset or drain,
// in log order. The record is one logRecord that each entry is decoded
// into in turn: fn must not modify or retain it. Between drains the log
// and its name table are append-only — a block's filled slots and a
// name's index are never rewritten — so fn runs without the pipeline's
// lock held.
func (lp *LogPipeline) each(fn func(*logRecord)) {
	lp.mu.Lock()
	blocks, n, names := lp.blocks, int(lp.held), lp.names
	lp.mu.Unlock()
	var r logRecord
	for _, b := range blocks {
		filled := min(n, logBlockRecords)
		for i := range b[:filled] {
			b[i].decode(names, &r)
			fn(&r)
		}
		n -= filled
	}
}

// drain calls fn on every record the log holds, as Each does, then
// rewinds the log so that the next records refill the same blocks;
// Totals still counts the drained records. Refilling rewrites slots an
// each may be walking, so only the day loop that owns the pipeline
// drains it, between its days (runDays).
func (lp *LogPipeline) drain(fn func(*logRecord)) {
	lp.each(fn)
	lp.mu.Lock()
	lp.held = 0
	lp.mu.Unlock()
}

// reset clears the sampled log and its counts (between measurement
// windows). Blocks are dropped, not reused: an Each still walking them
// keeps reading the old log. The name table stays.
func (lp *LogPipeline) reset() {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.blocks = nil
	lp.held = 0
	lp.total = 0
	lp.sampled = 0
}

// connSet is a set of connection IDs for the log-counting passes. The
// experiment mints ConnIDs densely and in increasing order, so the set
// is a bitmap in pages of connSetPageIDs consecutive IDs, with the page
// last touched kept at hand; IDs from anywhere else still work, at one
// page each.
type connSet struct {
	pages   map[uint64]*connSetPage
	lastKey uint64
	last    *connSetPage
}

const connSetPageIDs = 1 << 15

type connSetPage [connSetPageIDs / 64]uint64

// add inserts id and reports whether it was absent.
func (s *connSet) add(id uint64) bool {
	key := id / connSetPageIDs
	if s.last == nil || key != s.lastKey {
		if s.pages == nil {
			s.pages = make(map[uint64]*connSetPage)
		}
		page := s.pages[key]
		if page == nil {
			page = new(connSetPage)
			s.pages[key] = page
		}
		s.lastKey, s.last = key, page
	}
	word, bit := &s.last[id%connSetPageIDs/64], uint64(1)<<(id%64)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

// PassiveCounts are the §5.2 passive-measurement aggregates for
// requests to the third-party domain, per treatment.
type PassiveCounts struct {
	// NewTLSConns counts distinct connections whose first sampled request
	// for the third party arrived with SNI == Host at arrival order 1 (a
	// dedicated third-party connection, i.e. a fresh TLS connection to
	// it; see opensTLSConn).
	NewTLSConns map[Treatment]int
	// CoalescedConns counts distinct connections carrying third-party
	// requests with the flag bit set and arrival order ≥ 2, counted
	// once per connection (the paper's coalescing signal).
	CoalescedConns map[Treatment]int
}

// countPassive applies the paper's §5.2 counting rules to a sampled log
// (each is LogPipeline.each, or any iterator of that shape), optionally
// filtering by user-agent family (§5.3 used "firefox").
func countPassive(each func(func(*logRecord)), thirdParty, uaFilter string) PassiveCounts {
	pc := PassiveCounts{
		NewTLSConns:    map[Treatment]int{},
		CoalescedConns: map[Treatment]int{},
	}
	var seenNew, seenCoal connSet
	each(func(r *logRecord) {
		if r.Host != thirdParty {
			return
		}
		if uaFilter != "" && r.UserAgent != uaFilter {
			return
		}
		if r.FlagHostNeSNI && r.ArrivalOrder >= 2 {
			if seenCoal.add(r.ConnID) {
				pc.CoalescedConns[r.Treatment]++
			}
			return
		}
		if opensTLSConn(&seenNew, r) {
			pc.NewTLSConns[r.Treatment]++
		}
	})
	return pc
}

// opensTLSConn is §5.2's new-connection rule for a record already known
// to be for the third party: the first sampled record of its ConnID,
// with SNI == Host, at arrival order 1. A ConnID whose first sampled
// record arrives at order ≥ 2 is a reused connection whose opening
// record was lost (the telemetry-restart path in observeOutcome), not a
// new TLS handshake, and no later record of it counts either.
func opensTLSConn(seen *connSet, r *logRecord) bool {
	return !r.FlagHostNeSNI && seen.add(r.ConnID) && r.ArrivalOrder == 1
}

// ReductionPct returns the percentage reduction of new third-party TLS
// connections in the experiment group relative to control.
func (pc PassiveCounts) ReductionPct() float64 {
	ctl := float64(pc.NewTLSConns[TreatmentControl])
	exp := float64(pc.NewTLSConns[TreatmentExperiment])
	if ctl == 0 {
		return 0
	}
	return 100 * (ctl - exp) / ctl
}
