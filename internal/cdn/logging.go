package cdn

import (
	"math/rand"
	"slices"
	"sync"

	"respectorigin/internal/lazyrand"
	"respectorigin/internal/parallel"
)

// LogRecord is one sampled request log line, carrying exactly the
// fields §5.2 describes: the connection identifier, the truncated
// Referer (domain only, privacy), the SNI≠Host coalescing flag bit,
// the treatment label, the request's arrival order on its connection,
// and a user-agent family for the §5.3 Firefox filter.
type LogRecord struct {
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

// logBlockRecords is how many records one block of the sampled log
// holds (≈ 112 KiB). A multi-week deployment at SampleRate 1 keeps a
// million records; blocks are filled in place and never copied, where
// one growing slice would copy and clear the log several times over.
const logBlockRecords = 1024

type logBlock [logBlockRecords]LogRecord

// LogPipeline samples a fixed fraction of requests, as the production
// pipeline did (1%).
type LogPipeline struct {
	mu   sync.Mutex
	rate float64
	rng  *rand.Rand
	// blocks hold the sampled records in log order: every block but the
	// last is full, and sampled counts the records across them.
	blocks []*logBlock

	total   int64
	sampled int64
}

// NewLogPipeline creates a pipeline with the given sampling rate.
func NewLogPipeline(rate float64, seed int64) *LogPipeline {
	return &LogPipeline{rate: rate, rng: lazyrand.New(seed)}
}

// Observe ingests one request, sampling it with the configured rate.
func (lp *LogPipeline) Observe(r LogRecord) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if lp.lockedDraw() {
		if lp.sampled%logBlockRecords == 0 {
			lp.blocks = append(lp.blocks, new(logBlock))
		}
		put(lp.blocks, lp.sampled, r)
		lp.sampled++
	}
}

// lockedDraw counts one request and draws whether the sampler keeps it.
func (lp *LogPipeline) lockedDraw() bool {
	lp.total++
	return lp.rng.Float64() < lp.rate
}

// put writes r, flagged, into log position i of blocks.
func put(blocks []*logBlock, i int64, r LogRecord) {
	slot := &blocks[i/logBlockRecords][i%logBlockRecords]
	*slot = r
	slot.FlagHostNeSNI = r.Host != r.SNI
}

// lockedGrow returns the pipeline's blocks extended to hold sampled
// records, the new blocks allocated across workers.
func (lp *LogPipeline) lockedGrow(sampled int64, workers int) []*logBlock {
	have := len(lp.blocks)
	need := int((sampled + logBlockRecords - 1) / logBlockRecords)
	blocks := slices.Grow(lp.blocks, need-have)[:need]
	parallel.Do(need-have, workers, func(i int) { blocks[have+i] = new(logBlock) })
	return blocks
}

// Totals reports total and sampled request counts.
func (lp *LogPipeline) Totals() (total, sampled int64) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return lp.total, lp.sampled
}

// Records returns a copy of the sampled log.
func (lp *LogPipeline) Records() []LogRecord {
	_, n := lp.Totals()
	out := make([]LogRecord, 0, n)
	lp.Each(func(r *LogRecord) { out = append(out, *r) })
	return out
}

// Each calls fn on every record sampled so far, in log order and in
// place: fn must not modify or retain the record. The log is
// append-only — a block's filled slots are never rewritten — so fn runs
// without the pipeline's lock held.
func (lp *LogPipeline) Each(fn func(*LogRecord)) {
	lp.mu.Lock()
	blocks, n := lp.blocks, int(lp.sampled)
	lp.mu.Unlock()
	for _, b := range blocks {
		filled := min(n, logBlockRecords)
		for i := range b[:filled] {
			fn(&b[i])
		}
		n -= filled
	}
}

// Reset clears the sampled log (between measurement windows). Blocks
// are dropped, not reused: an Each still walking them keeps reading the
// old log.
func (lp *LogPipeline) Reset() {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.blocks = nil
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
	// NewTLSConns counts distinct connections whose first request for
	// the third party arrived with SNI == Host (a dedicated third-party
	// connection, i.e. a fresh TLS connection to it).
	NewTLSConns map[Treatment]int
	// CoalescedConns counts distinct connections carrying third-party
	// requests with the flag bit set and arrival order ≥ 2, counted
	// once per connection (the paper's coalescing signal).
	CoalescedConns map[Treatment]int
}

// CountPassive applies the paper's §5.2 counting rules to a sampled log
// (each is LogPipeline.Each, or any iterator of that shape), optionally
// filtering by user-agent family (§5.3 used "firefox").
func CountPassive(each func(func(*LogRecord)), thirdParty, uaFilter string) PassiveCounts {
	pc := PassiveCounts{
		NewTLSConns:    map[Treatment]int{},
		CoalescedConns: map[Treatment]int{},
	}
	var seenNew, seenCoal connSet
	each(func(r *LogRecord) {
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
		if !r.FlagHostNeSNI {
			if seenNew.add(r.ConnID) {
				pc.NewTLSConns[r.Treatment]++
			}
		}
	})
	return pc
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
