package cdn

import (
	"math/rand"
	"sync"
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

// LogPipeline samples a fixed fraction of requests, as the production
// pipeline did (1%).
type LogPipeline struct {
	mu      sync.Mutex
	rate    float64
	rng     *rand.Rand
	records []LogRecord

	total   int64
	sampled int64
}

// NewLogPipeline creates a pipeline with the given sampling rate.
func NewLogPipeline(rate float64, seed int64) *LogPipeline {
	return &LogPipeline{rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Observe ingests one request, sampling it with the configured rate.
func (lp *LogPipeline) Observe(r LogRecord) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.total++
	if lp.rng.Float64() < lp.rate {
		r.FlagHostNeSNI = r.Host != r.SNI
		lp.records = append(lp.records, r)
		lp.sampled++
	}
}

// Totals reports total and sampled request counts.
func (lp *LogPipeline) Totals() (total, sampled int64) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return lp.total, lp.sampled
}

// Records returns a copy of the sampled log.
func (lp *LogPipeline) Records() []LogRecord {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return append([]LogRecord(nil), lp.records...)
}

// Each calls fn on every record sampled so far, in log order and in
// place: fn must not modify or retain the record. The log is
// append-only, so fn runs without the pipeline's lock held.
func (lp *LogPipeline) Each(fn func(*LogRecord)) {
	lp.mu.Lock()
	records := lp.records
	lp.mu.Unlock()
	for i := range records {
		fn(&records[i])
	}
}

// Reset clears the sampled log (between measurement windows).
func (lp *LogPipeline) Reset() {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.records = nil
	lp.total = 0
	lp.sampled = 0
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
	seenNew := map[uint64]bool{}
	seenCoal := map[uint64]bool{}
	each(func(r *LogRecord) {
		if r.Host != thirdParty {
			return
		}
		if uaFilter != "" && r.UserAgent != uaFilter {
			return
		}
		if r.FlagHostNeSNI && r.ArrivalOrder >= 2 {
			if !seenCoal[r.ConnID] {
				seenCoal[r.ConnID] = true
				pc.CoalescedConns[r.Treatment]++
			}
			return
		}
		if !r.FlagHostNeSNI {
			if !seenNew[r.ConnID] {
				seenNew[r.ConnID] = true
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
