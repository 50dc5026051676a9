package cdn

import (
	"fmt"
	"math/bits"
	"math/rand"
	"net/netip"
	"slices"
	"sync/atomic"

	"respectorigin/internal/browser"
	"respectorigin/internal/faults"
	"respectorigin/internal/lazyrand"
	"respectorigin/internal/measure"
	"respectorigin/internal/obs"
	"respectorigin/internal/parallel"
)

// The §5 calibration of the deployment experiment.
const (
	// subpageOnlyFrac is the fraction of candidates removed because only
	// their subpages request the third party (§5.1: 22%).
	subpageOnlyFrac float64 = 0.22
	// anonymousFrac is the fraction of zones whose third-party requests
	// use crossorigin=anonymous or fetch()/XHR and never coalesce.
	anonymousFrac float64 = 0.30
	// churnFrac is the fraction of zones that stopped requesting the
	// third party between selection and measurement.
	churnFrac float64 = 0.06
	// originFetchFailFrac is the per-visit probability that a visit's
	// third-party request goes through a non-coalescing API path during
	// the ORIGIN phase only (the §5.3 XMLHttpRequest/fetch observation).
	originFetchFailFrac float64 = 0.12
	// firefoxShare and chromeShare are the UA shares of visiting
	// clients; the remainder are HTTP/1.1-era clients. They are typed so
	// that UAFamily's cutoff is their float64 sum, 0.7999999999999999.
	firefoxShare float64 = 0.08
	chromeShare  float64 = 0.72
	// visitsPerZonePerDay drives passive volume.
	visitsPerZonePerDay = 4
)

// ExperimentConfig parameterizes the §5 deployment experiment.
type ExperimentConfig struct {
	// SampleSize is the number of candidate domains (the paper used the
	// 5000 domains with the most third-party requests by Referer).
	SampleSize int
	Seed       int64

	// Faults is the degradation plan sampled per visit; the zero plan
	// disables injection entirely and leaves every output byte-identical
	// to a fault-free build. The injector draws from its own stream,
	// derived from Seed, so the plan never perturbs the experiment's
	// sampling streams.
	Faults faults.Plan
	// FaultRetries is the per-request retry budget browsers get under a
	// nonzero plan (bounded retry-with-backoff).
	FaultRetries int

	// Workers is how many goroutines run a planned day's visits (≤ 0:
	// all cores). Every output is identical for any count.
	Workers int
}

// DefaultExperimentConfig mirrors the paper's setup at reduced scale.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		SampleSize: 5000,
		Seed:       1,
	}
}

// Experiment drives the deployment experiment against a CDN.
type Experiment struct {
	CDN *CDN
	Cfg ExperimentConfig

	// Rec, when set, receives "cdn.*" counters and per-visit trace spans,
	// and is handed to every visit's browser. Set it before the first
	// visit. Observation only: the recorder never touches e.rng or the
	// injector stream, so traced and untraced runs emit identical log
	// records.
	Rec obs.Recorder

	rng *rand.Rand
	inj *faults.Injector
	// records is the length of the experiment's record sequence: every
	// request a visit has logged, or would have logged had it not been
	// an active measurement. A connection's ConnID is the 1-based ordinal
	// of the record that opened it.
	records uint64

	// env is what visits browse: the CDN, behind the fault boundary under
	// a nonzero plan. clients are Visit's browsers.
	env     browser.Environment
	clients *clients

	// plan is a planned day's visits, kept for its storage.
	plan []visitPlan
	// zoneNames are SampleZones' hosts in the log's name table.
	zoneNames []uint32

	// visitSeq ranks the trace spans in visit order.
	visitSeq atomic.Int64

	// SampleZones are the retained treated zones (after the 22% cut).
	SampleZones []*Zone
	// Removed is how many candidates were cut at selection.
	Removed int
}

// SetupExperiment creates the sample zones on the CDN, assigns
// treatments randomly, and reissues their certificates (Figure 6).
func SetupExperiment(c *CDN, cfg ExperimentConfig) *Experiment {
	e := &Experiment{CDN: c, Cfg: cfg, rng: lazyrand.New(cfg.Seed), env: c}
	retries, backoffMs := 0, 0.0
	if !cfg.Faults.Zero() {
		// An independent stream: never shared with e.rng or the log
		// pipeline, so the plan's draws cannot realign them.
		e.inj = faults.NewInjector(cfg.Faults, cfg.Seed^0x5fa17e)
		e.env = &faults.Env{Inner: c, Inj: e.inj}
		retries, backoffMs = cfg.FaultRetries, 250
	}
	e.clients = newClients(retries, backoffMs)
	for i := 0; i < cfg.SampleSize; i++ {
		if e.rng.Float64() < subpageOnlyFrac {
			e.Removed++
			continue
		}
		host := fmt.Sprintf("www.sample-%d.example", i)
		addr := netip.AddrFrom4([4]byte{104, 18, byte(i >> 8), byte(i)})
		z := c.AddZone(host, addr)
		if e.rng.Float64() < 0.5 {
			z.Treatment = TreatmentExperiment
		} else {
			z.Treatment = TreatmentControl
		}
		z.UsesAnonymousFetch = e.rng.Float64() < anonymousFrac
		z.Churned = e.rng.Float64() < churnFrac
		z.ThirdPartyPools = SamplePools(e.rng)
		e.SampleZones = append(e.SampleZones, z)
	}
	c.ReissueCertificates()
	lp := c.pipeline
	lp.mu.Lock()
	for _, z := range e.SampleZones {
		e.zoneNames = append(e.zoneNames, lp.lockedName(z.Host))
	}
	lp.mu.Unlock()
	return e
}

// SamplePools draws the number of independent third-party connection
// pools a page opens (Figure 7a control: 83% one, tail up to 7). The
// open-loop load generator draws its page views from the same
// distribution.
func SamplePools(rng *rand.Rand) int {
	x := rng.Float64()
	switch {
	case x < 0.83:
		return 1
	case x < 0.93:
		return 2
	case x < 0.97:
		return 3
	case x < 0.985:
		return 4
	case x < 0.993:
		return 5
	case x < 0.998:
		return 6
	default:
		return 7
	}
}

// clients are the two coalescing client families a visit browses with.
// Each is Reset at the start of every visit it serves, so a visit reuses
// the previous one's pool storage.
type clients struct {
	firefox, chromium *browser.Browser
}

func newClients(retries int, backoffMs float64) *clients {
	return &clients{
		firefox:  &browser.Browser{Policy: browser.PolicyFirefoxOrigin, MaxRetries: retries, RetryBackoffMs: backoffMs},
		chromium: &browser.Browser{Policy: browser.PolicyChromium, MaxRetries: retries, RetryBackoffMs: backoffMs},
	}
}

// forUA returns the client for a user-agent family, or nil for
// HTTP/1.1-era clients, which have no H2 coalescing pool.
func (cl *clients) forUA(ua string) *browser.Browser {
	switch ua {
	case "firefox":
		return cl.firefox
	case "chrome":
		return cl.chromium
	default:
		return nil
	}
}

// VisitResult summarizes one page view.
type VisitResult struct {
	NewThirdParty   int // fresh TLS connections opened to the third party
	CoalescedPools  int
	ThirdPartyTotal int // third-party request pools exercised

	// Fault accounting (all zero under a zero plan).
	ZoneFailed     bool // the zone's own connection never came up
	FailedRequests int  // third-party requests lost to injected faults
	Retries        int  // browser retry attempts consumed
	Resets         int  // TCP resets suffered mid-visit
	GoAways        int  // graceful GOAWAY drains suffered mid-visit
	Misdirected421 int  // reuse attempts bounced with 421
}

// connState is the CDN-side per-connection log bookkeeping.
type connState struct {
	id    uint64
	order int32
}

// connTable is one visit's connState by the hostname each connection
// was opened for (the TLS SNI). A visit opens connections for its zone
// and for the third party and nothing else, so the table is two slots
// and lives on the visit's stack.
type connTable struct {
	hosts [2]string
	state [2]connState
	n     int
}

// get returns the state of the connection opened for host, or nil.
func (t *connTable) get(host string) *connState {
	for i := 0; i < t.n; i++ {
		if t.hosts[i] == host {
			return &t.state[i]
		}
	}
	return nil
}

// put records a connection opened for host, replacing any earlier one.
func (t *connTable) put(host string, cs connState) *connState {
	slot := t.get(host)
	if slot == nil {
		t.hosts[t.n] = host
		slot = &t.state[t.n]
		t.n++
	}
	*slot = cs
	return slot
}

// remove forgets the connection opened for host.
func (t *connTable) remove(host string) {
	for i := 0; i < t.n; i++ {
		if t.hosts[i] == host {
			t.n--
			t.hosts[i], t.state[i] = t.hosts[t.n], t.state[t.n]
			return
		}
	}
}

// Injector returns the experiment's fault injector (nil under a zero
// plan).
func (e *Experiment) Injector() *faults.Injector { return e.inj }

// beginVisit opens a trace span for one page view under a recorder and
// returns the span's rank. The span brackets every event the visit's
// browser emits: page_start sorts first within the rank (Seq -1) and
// endVisit's page_end last (Seq 1<<30), whatever the browser's own
// sequence numbers reach.
func (e *Experiment) beginVisit(z *Zone, ua string) int {
	rank := int(e.visitSeq.Add(1))
	obs.Count(e.Rec, "cdn.visits", 1)
	obs.Emit(e.Rec, obs.Event{Rank: rank, Seq: -1, Kind: obs.KindPageStart, Host: z.Host, Detail: ua})
	return rank
}

// endVisit stamps the page_end summary once the VisitResult is final.
func (e *Experiment) endVisit(rank int, z *Zone, ua string, res *VisitResult) {
	obs.Count(e.Rec, "cdn.third_party_pools", int64(res.ThirdPartyTotal))
	obs.Count(e.Rec, "cdn.new_third_party_conns", int64(res.NewThirdParty))
	obs.Count(e.Rec, "cdn.coalesced_pools", int64(res.CoalescedPools))
	obs.Count(e.Rec, "cdn.failed_requests", int64(res.FailedRequests))
	obs.Count(e.Rec, "cdn.misdirected_421", int64(res.Misdirected421))
	obs.Count(e.Rec, "cdn.retries", int64(res.Retries))
	obs.Count(e.Rec, "cdn.resets", int64(res.Resets))
	obs.Count(e.Rec, "cdn.goaways", int64(res.GoAways))
	if res.ZoneFailed {
		obs.Count(e.Rec, "cdn.zone_failures", 1)
	}
	obs.Emit(e.Rec, obs.Event{
		Rank: rank, Seq: 1 << 30, Kind: obs.KindPageEnd, Host: z.Host, Detail: ua,
		N: res.ThirdPartyTotal,
	})
}

// Visit simulates one page view of zone by a client with the given
// user-agent on the given day, emitting sampled log records. Under a
// nonzero fault plan the same flow samples the plan at every
// opportunity it names; all injector draws happen in request order on
// the injector's own stream, so two runs with the same seeds and plan
// are byte-identical. Every fault step is behind e.inj != nil, so the
// zero plan takes no wrapper, no extra lookup and no draw; and under a
// nil recorder the visit is exactly the untraced one.
func (e *Experiment) Visit(z *Zone, ua string, day int) VisitResult {
	io := visitIO{day: narrow[int32]("Day", day), next: e.records + 1, lp: e.CDN.pipeline}
	if day >= 0 {
		io.visitNames = e.namesFor(z, ua)
	}
	rank := 0
	if e.Rec != nil {
		rank = e.beginVisit(z, ua)
	}
	res := e.visit(e.clients, z, ua, rank, &io)
	e.records = io.next - 1
	if e.Rec != nil {
		e.endVisit(rank, z, ua, &res)
	}
	return res
}

// visitIO is where one visit's pool coins come from and where its log
// records go. Visit draws the coins from e.rng as the visit reaches them
// and logs through the pipeline; a planned visit reads the coins its
// plan drew and writes into the log slots its plan reserved.
type visitIO struct {
	day  int32  // < 0: an active measurement, which is not production traffic and leaves no log
	next uint64 // ordinal of the visit's next record
	n    int    // records the visit has emitted
	visitNames

	lp     *LogPipeline
	plan   *visitPlan
	blocks []*logBlock
}

// visitNames are what every record of one visit shares: its zone, the
// third party and its user agent as indices into the log's name table,
// and its zone's treatment. They are resolved once per visit (Visit) or
// per day (the plan step), so no record looks a name up.
type visitNames struct {
	zone, third, ua uint32
	treatment       uint8
}

// namesFor resolves a logged visit's names, taking the pipeline's lock
// once.
func (e *Experiment) namesFor(z *Zone, ua string) visitNames {
	lp := e.CDN.pipeline
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return visitNames{
		zone: lp.lockedName(z.Host), third: lp.lockedName(e.CDN.ThirdParty), ua: lp.lockedName(ua),
		treatment: uint8(z.Treatment),
	}
}

// visitPlan is one visit of a planned day, as the plan step fixed it.
type visitPlan struct {
	zone  *Zone
	ua    string
	names visitNames
	// anon has bit p set when pool p's third-party request is anonymous.
	anon uint32
	// sampled has bit k set when the sampler kept the visit's record k;
	// the first kept record goes to log position slot, the rest follow.
	sampled uint32
	slot    int64
	first   uint64 // ordinal of the visit's first record
	records int    // how many records the visit logs
}

// maxPlannedRecords bounds a planned visit's records: one bit each.
const maxPlannedRecords = 32

// log emits the visit's next record, stamped with the visit's day,
// treatment and user agent, and returns its ConnID. A record with
// ConnID 0 opens its connection, whose ID is the record's ordinal.
func (io *visitIO) log(r logEntry) uint64 {
	ord, k := io.next, io.n
	io.next++
	io.n++
	if r.ConnID == 0 {
		r.ConnID = ord
	}
	r.Day, r.Treatment, r.UserAgent = io.day, io.treatment, io.ua
	switch p := io.plan; {
	case p != nil:
		if p.sampled>>k&1 != 0 {
			put(io.blocks, p.slot+int64(bits.OnesCount32(p.sampled&(1<<k-1))), r)
		}
	case io.day >= 0:
		io.lp.observe(r)
	}
	return r.ConnID
}

// anonymous reports whether pool's third-party request of a visit to z
// goes through a separate, uncredentialed pool.
func (e *Experiment) anonymous(io *visitIO, z *Zone, pool int) bool {
	if io.plan != nil {
		return io.plan.anon>>pool&1 != 0
	}
	return e.drawAnonymous(z, pool, e.CDN.phase())
}

// drawAnonymous draws pool's coins: the zone's own habit decides its
// first pool and a coin each further one, and during the ORIGIN phase a
// second coin sends the request through a non-coalescing API.
func (e *Experiment) drawAnonymous(z *Zone, pool int, phase Phase) bool {
	anonymous := z.UsesAnonymousFetch
	if pool > 0 {
		anonymous = e.rng.Float64() < 0.5
	}
	if phase == PhaseOrigin && e.rng.Float64() < originFetchFailFrac {
		anonymous = true
	}
	return anonymous
}

// visit is the page view itself, browsing with cl; rank tags the events
// its browser emits when a recorder is installed.
func (e *Experiment) visit(cl *clients, z *Zone, ua string, rank int, io *visitIO) VisitResult {
	var res VisitResult
	faulted := e.inj != nil
	b := cl.forUA(ua)
	h2 := b != nil

	// The zone's own connection must survive DNS and the TLS handshake
	// before any third-party request exists. A churned zone requests no
	// third party, so its visit opens the connection only for the fault
	// gauntlet.
	zoneFailed := false
	if h2 && (faulted || !z.Churned) {
		b.Reset()
		b.Rec, b.Rank = e.Rec, rank
		out := b.Request(e.env, z.Host)
		res.Retries += out.Retries
		zoneFailed = faulted && out.Err != nil
	} else if faulted {
		// Legacy clients: model the same DNS + handshake gauntlet
		// without a coalescing pool.
		_, err := e.env.Lookup(z.Host)
		zoneFailed = err != nil || e.inj.Hit(faults.KindTLSFail)
	}
	if zoneFailed {
		res.ZoneFailed = true
		res.FailedRequests++
		return res
	}

	zoneConn := io.log(logEntry{SNI: io.zone, Host: io.zone, ArrivalOrder: 1})
	if z.Churned {
		return res
	}

	var conns connTable
	conns.put(z.Host, connState{id: zoneConn, order: 1})

	for pool := 0; pool < z.ThirdPartyPools; pool++ {
		res.ThirdPartyTotal++
		if faulted {
			e.midVisitFaults(&res, b, &conns, z)
		}

		anonymous := e.anonymous(io, z, pool)
		if !h2 {
			// Legacy clients: a fresh connection per request, no pool.
			if faulted {
				if _, err := e.env.Lookup(e.CDN.ThirdParty); err != nil || e.inj.Hit(faults.KindTLSFail) {
					res.FailedRequests++
					continue
				}
			}
			res.NewThirdParty++
			io.log(logEntry{SNI: io.third, Host: io.third, RefererHost: io.zone, ArrivalOrder: 1})
			continue
		}
		var out browser.Outcome
		if anonymous {
			out = b.RequestAnonymous(e.env, e.CDN.ThirdParty)
		} else {
			out = b.Request(e.env, e.CDN.ThirdParty)
		}
		if faulted {
			res.Retries += out.Retries
			if out.Got421 {
				res.Misdirected421++
			}
			if out.Err != nil {
				res.FailedRequests++
				continue
			}
		}
		e.observeOutcome(&res, &conns, &out, anonymous, z, io)
	}
	return res
}

// midVisitFaults rolls the plan's mid-visit connection faults before
// one third-party pool. They hit the busiest established connection:
// the third-party carrier when one exists, else the zone connection.
func (e *Experiment) midVisitFaults(res *VisitResult, b *browser.Browser, conns *connTable, z *Zone) {
	target := e.CDN.ThirdParty
	if conns.get(target) == nil {
		target = z.Host
	}
	if e.inj.Hit(faults.KindReset) {
		res.Resets++
		if b != nil {
			b.DropConns(target)
		}
		conns.remove(target)
	} else if e.inj.Hit(faults.KindGoAway) {
		// Graceful drain: no new requests ride the connection, but
		// its log state stays valid for records already emitted.
		res.GoAways++
		if b != nil {
			b.DropConns(target)
		}
	}
	if e.inj.Hit(faults.KindLogRestart) {
		// Telemetry restart: the collector loses every conn's
		// bookkeeping while the browser pool lives on — the exact
		// situation the defensive path in observeOutcome handles.
		*conns = connTable{}
	}
}

// observeOutcome turns one browser outcome into log records and result
// accounting, maintaining the per-connection arrival orders. An anonymous
// request's connection stays out of conns: no later request rides it.
func (e *Experiment) observeOutcome(res *VisitResult, conns *connTable,
	out *browser.Outcome, anonymous bool, z *Zone, io *visitIO) {
	switch {
	case out.Reused():
		cs := conns.get(out.ConnHost)
		if cs == nil {
			// Defensive: the carrier connection's bookkeeping was lost
			// (telemetry restart). The connection itself pre-exists this
			// request — it served at least its own first request — so
			// its reconstructed state starts at order 1 and this reuse
			// logs at order ≥ 2, never as a connection's first arrival;
			// the §5.2 counting rules (opensTLSConn) must not tally it as a fresh TLS
			// connection even though the collector mints a new ConnID
			// (this record's ordinal).
			cs = conns.put(out.ConnHost, connState{order: 1})
		}
		cs.order++
		if out.Coalesced() {
			res.CoalescedPools++
		}
		sni := io.third // a visit connects to its zone and the third party only
		if out.ConnHost == z.Host {
			sni = io.zone
		}
		cs.id = io.log(logEntry{ConnID: cs.id, SNI: sni, Host: io.third, RefererHost: io.zone, ArrivalOrder: cs.order})
	case out.NewConnection():
		res.NewThirdParty++
		id := io.log(logEntry{SNI: io.third, Host: io.third, RefererHost: io.zone, ArrivalOrder: 1})
		if !anonymous {
			conns.put(e.CDN.ThirdParty, connState{id: id, order: 1})
		}
	}
}

// uaFamilies are the user-agent families a visit is drawn from, in
// UAFamily's order.
var uaFamilies = [...]string{"firefox", "chrome", "legacy"}

// The client families UAFamily picks, as indexes into uaFamilies.
const (
	UAFirefox = iota
	UAChrome
	uaLegacy
)

// UAFamily is the client family a uniform draw x in [0, 1) picks:
// firefoxShare of clients run Firefox, chromeShare Chrome, and the rest
// are HTTP/1.1-era clients.
func UAFamily(x float64) int {
	switch {
	case x < firefoxShare:
		return UAFirefox
	case x < firefoxShare+chromeShare:
		return UAChrome
	}
	return uaLegacy
}

// sampleUA draws a user-agent family from the client shares.
func (e *Experiment) sampleUA() string { return uaFamilies[UAFamily(e.rng.Float64())] }

// runDay simulates one day of passive traffic over all sample zones,
// visitsPerZonePerDay visits each, zone by zone. A faulted or traced day
// runs Visit in that order: the injector decides whether a visit draws
// its coins at all, and a trace ranks visits in order. Any other day is
// planned, and its log, Totals and ConnIDs are what that loop gives.
func (e *Experiment) runDay(day int) {
	if e.inj != nil || e.Rec != nil {
		for _, z := range e.SampleZones {
			for v := 0; v < visitsPerZonePerDay; v++ {
				e.Visit(z, e.sampleUA(), day)
			}
		}
		return
	}
	e.runPlannedDay(day)
}

// runPlannedDay runs a day as plan → simulate → publish, holding the
// pipeline's lock throughout so no other request interleaves.
//
//   - Plan, in visit order: draw each visit's UA, its pool coins and the
//     sampler's one draw per record, from the streams and in the order
//     Visit draws them. How many of each a visit takes follows from its
//     zone and the phase alone: one record for the zone's connection,
//     plus one per pool unless the zone has churned. So each sampled
//     record gets its log position here, and the pipeline's total
//     advances.
//   - Simulate, on Workers goroutines with two clients each: allocate
//     the day's new log blocks, then run every visit, which writes its
//     sampled records straight into their slots.
//   - Publish: the held and sampled counts advance once every visit is
//     done, so Each never sees an unfilled slot.
func (e *Experiment) runPlannedDay(day int) {
	lp := e.CDN.pipeline
	lp.mu.Lock()
	defer lp.mu.Unlock()
	phase := e.CDN.phase()
	d := narrow[int32]("Day", day)
	third := lp.lockedName(e.CDN.ThirdParty)
	var uaNames [len(uaFamilies)]uint32
	for i, ua := range uaFamilies {
		uaNames[i] = lp.lockedName(ua)
	}
	held := lp.held
	plan := slices.Grow(e.plan[:0], len(e.SampleZones)*visitsPerZonePerDay)
	for zi, z := range e.SampleZones {
		records := 1
		if !z.Churned {
			records += z.ThirdPartyPools
		}
		if records > maxPlannedRecords {
			panic(fmt.Sprintf("cdn: %s has %d third-party pools; a planned visit logs at most %d records", z.Host, z.ThirdPartyPools, maxPlannedRecords))
		}
		for v := 0; v < visitsPerZonePerDay; v++ {
			ua := UAFamily(e.rng.Float64())
			p := visitPlan{
				zone: z, ua: uaFamilies[ua], slot: held, first: e.records + 1, records: records,
				names: visitNames{zone: e.zoneNames[zi], third: third, ua: uaNames[ua], treatment: uint8(z.Treatment)},
			}
			for pool := 0; pool < records-1; pool++ {
				if e.drawAnonymous(z, pool, phase) {
					p.anon |= 1 << pool
				}
			}
			for k := 0; k < records; k++ {
				if lp.lockedDraw() {
					p.sampled |= 1 << k
					held++
				}
			}
			e.records += uint64(records)
			plan = append(plan, p)
		}
	}
	e.plan = plan

	blocks := lp.lockedGrow(held, e.Cfg.Workers)
	parallel.DoWith(len(plan), e.Cfg.Workers, func() *clients { return newClients(0, 0) }, func(cl *clients, i int) {
		p := &plan[i]
		io := visitIO{day: d, next: p.first, visitNames: p.names, plan: p, blocks: blocks}
		e.visit(cl, p.zone, p.ua, 0, &io)
		if io.n != p.records {
			panic(fmt.Sprintf("cdn: a planned visit to %s logged %d records; its plan holds %d", p.zone.Host, io.n, p.records))
		}
	})
	lp.blocks, lp.sampled, lp.held = blocks, lp.sampled+held-lp.held, held
}

// runDays runs days [0, total) of passive traffic on a freshly Reset
// log; the given phase is active during [phaseStart, phaseEnd), baseline
// otherwise. As each day closes its records go to fold, in log order,
// and the log is drained, so the next day refills the same blocks: the
// log holds one day at a time, while Totals counts every day.
func (e *Experiment) runDays(total, phaseStart, phaseEnd int, phase Phase, isolated netip.Addr, fold func(*logRecord)) {
	lp := e.CDN.Pipeline()
	lp.reset()
	for day := 0; day < total; day++ {
		// Independent checks, enter before exit: a zero-length window
		// (phaseStart == phaseEnd) enters and immediately exits on the
		// same day, so the day runs at baseline instead of leaving the
		// phase stuck on for the rest of the deployment.
		if day == phaseStart {
			switch phase {
			case PhaseIP:
				e.CDN.EnterPhaseIP()
			case PhaseOrigin:
				e.CDN.EnterPhaseOrigin(isolated)
			}
		}
		if day == phaseEnd {
			e.CDN.ExitExperiment()
		}
		e.runDay(day)
		lp.drain(fold)
	}
	e.CDN.ExitExperiment()
}

// Longitudinal runs a multi-day deployment: days [0, total); the given
// phase is active during [phaseStart, phaseEnd); baseline otherwise.
// It returns per-day new-TLS-connection counts to the third party for
// control and experiment, computed from the sampled log with the §5.2
// rules (Figure 8). For the ORIGIN phase the paper filtered to Firefox;
// pass uaFilter="firefox" for that view.
func (e *Experiment) Longitudinal(total, phaseStart, phaseEnd int, phase Phase, isolated netip.Addr, uaFilter string) (control, experiment measure.Series) {
	ctl := make([]float64, total)
	exp := make([]float64, total)
	var seen connSet
	e.runDays(total, phaseStart, phaseEnd, phase, isolated, func(r *logRecord) {
		if r.Host != e.CDN.ThirdParty {
			return
		}
		if uaFilter != "" && r.UserAgent != uaFilter {
			return
		}
		if !opensTLSConn(&seen, r) {
			return
		}
		switch r.Treatment {
		case TreatmentControl:
			ctl[r.Day]++
		case TreatmentExperiment:
			exp[r.Day]++
		}
	})
	return measure.Series{Values: ctl}, measure.Series{Values: exp}
}

// PassiveIP runs the §5.2 passive measurement: days [0, days) under IP
// coalescing, tallied by countPassive over every user agent.
func (e *Experiment) PassiveIP(days int) PassiveCounts {
	return countPassive(func(fold func(*logRecord)) {
		e.runDays(days, 0, days, PhaseIP, netip.Addr{}, fold)
	}, e.CDN.ThirdParty, "")
}

// ActiveMeasurement repeats the §3 methodology on the sample set with a
// fresh Firefox per site (caches cleared between loads): it returns the
// number of new third-party connections per site for the control and
// experiment groups (Figures 7a/7b).
func (e *Experiment) ActiveMeasurement() (control, experiment []int) {
	for _, z := range e.SampleZones {
		res := e.Visit(z, "firefox", -1)
		switch z.Treatment {
		case TreatmentControl:
			control = append(control, res.NewThirdParty)
		case TreatmentExperiment:
			experiment = append(experiment, res.NewThirdParty)
		}
	}
	return control, experiment
}
