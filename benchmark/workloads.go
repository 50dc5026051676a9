package main

// Stable-API rule. The benchmark drives the program only through entry
// points the planned visit-kernel refactor (ROADMAP item 2) keeps, so a
// refactor PR never needs to edit this directory:
//
//   - corpora go through corpus.NewWriter / corpus.NewReader, never the
//     har.WriteJSON / StreamWriter / ReadJSON / ReadAll shims;
//   - browsers are built with browser.New(policy, opts...), never
//     configured through Browser.SetRecorder;
//   - warm state uses the protocol-keyed ticket/token calls
//     (Cache.StoreTicketProto / RedeemTicketProto / RedeemToken), never
//     TicketStore.Store / Redeem or the legacy h2 wrappers;
//   - page replays go through report.Corpus.WarmColdProto (what
//     report.Corpus.ProtoSweep loops over), never core.WarmReplayCosts
//     or core.ProtocolReplayCosts directly;
//   - Huffman decoding is hpack.HuffmanDecode (the LUT decoder), never
//     the HuffmanDecodeTree reference;
//   - nothing here imports internal/bench.

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"respectorigin/internal/cache"
	"respectorigin/internal/cdn"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/loadgen"
	"respectorigin/internal/netsim"
	"respectorigin/internal/report"
	"respectorigin/internal/scenario"
	"respectorigin/internal/webgen"
)

// sizes fixes the amount of work in one iteration of each workload.
type sizes struct {
	CrawlSites   int // crawl-report: webgen attempts
	ReplaySites  int // proto-replay: webgen attempts behind the decoded corpus
	Revisits     int // proto-replay: visits per page and protocol
	DeploySample int // cdn-deploy: candidate sample domains
	Users        int // openloop-serve: arriving users
	MatrixSites  int // matrix-sweep: attempts per archetype
	H2Requests   int // h2-live: GETs per iteration, split across the clients
	H2Redial     int // h2-live: requests per connection before re-dialling
	H2BulkEvery  int // h2-live: one request in this many fetches the bulk body
	ProbeCalls   int // traced run: calls per per-call layer probe
}

// fullSizes are the sizes BENCHMARK.json's numbers are taken at: the
// cmd/ binaries' defaults where they have one (cdnsim -sample 5000,
// cdnsim -matrix -sites 150), otherwise large enough that one iteration
// runs for 0.3–1.5 s on two cores and fork/join overhead is noise.
var fullSizes = sizes{
	CrawlSites: 2000, ReplaySites: 4000, Revisits: 4, DeploySample: 5000,
	Users: 20000, MatrixSites: 150, H2Requests: 60000, H2Redial: 1000, H2BulkEvery: 50,
	ProbeCalls: 100000, // tens of milliseconds per probe
}

// toySizes keep the tier-1 smoke test under a few seconds.
var toySizes = sizes{
	CrawlSites: 40, ReplaySites: 40, Revisits: 2, DeploySample: 60,
	Users: 500, MatrixSites: 8, H2Requests: 200, H2Redial: 50, H2BulkEvery: 20,
	ProbeCalls: 1000,
}

// iterOut is what one iteration hands back to the harness.
type iterOut struct {
	ops    int // completed operations, in the workload's op unit
	failed int // operations that broke an invariant (anything but the expected outcome)
	// artifacts are the deterministic outputs; the harness hashes them
	// into sim_digest after the clock has stopped.
	artifacts [][]byte
	// counters are per-layer counts and simulated statistics read off the
	// iteration's results (exact, not timed).
	counters map[string]float64
}

// workload is one benchmark scenario. prepare builds seed-derived
// inputs; iterate performs one fixed unit of work at a worker count;
// reference, run once during set-up, yields the artifacts every later
// iteration's digest is held to — for the simulator workloads an
// iteration at one worker, which makes the repo's standing
// workers-invariance a per-run check.
type workload interface {
	opUnit() string
	prepare(seed int64, sz sizes, workers int) error
	reference() (iterOut, error)
	iterate(tr *tracer, parent int32, workers int) (iterOut, error)
}

var workloadNames = []string{
	"crawl-report", "proto-replay", "cdn-deploy", "openloop-serve", "matrix-sweep", "h2-live",
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "crawl-report":
		return &crawlReport{}, nil
	case "proto-replay":
		return &protoReplay{}, nil
	case "cdn-deploy":
		return &cdnDeploy{}, nil
	case "openloop-serve":
		return &openloopServe{}, nil
	case "matrix-sweep":
		return &matrixSweep{}, nil
	case "h2-live":
		return &h2Live{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// cdnASN is the deployment CDN's AS number, cmd/report's -cdn-asn default.
const cdnASN = 13335

// --- crawl-report ---

// crawlReport is the crawl → report batch flow: generate a corpus
// streaming into the columnar encoding, decode it back into an analysis
// corpus, render the §4 tables and figures.
type crawlReport struct {
	cfg webgen.Config
}

func (w *crawlReport) opUnit() string              { return "page" }
func (w *crawlReport) reference() (iterOut, error) { return w.iterate(nil, noSpan, 1) }

func (w *crawlReport) prepare(seed int64, sz sizes, workers int) error {
	w.cfg = webgen.DefaultConfig()
	w.cfg.Sites = sz.CrawlSites
	w.cfg.Seed = seed

	// Cross-format invariant, once: the columnar corpus re-encoded as
	// NDJSON must byte-equal NDJSON written directly.
	var direct, col, reenc bytes.Buffer
	nd := corpus.NewWriter(&direct, corpus.FormatNDJSON)
	cw := corpus.NewWriter(&col, corpus.FormatColumnar)
	cfg := w.cfg
	cfg.Workers = workers
	if _, err := webgen.GenerateStream(cfg, func(p *har.Page) error {
		if err := nd.Write(p); err != nil {
			return err
		}
		return cw.Write(p)
	}); err != nil {
		return err
	}
	if err := nd.Close(); err != nil {
		return err
	}
	if err := cw.Close(); err != nil {
		return err
	}
	rw := corpus.NewWriter(&reenc, corpus.FormatNDJSON)
	r := corpus.NewReader(bytes.NewReader(col.Bytes()), corpus.FormatColumnar)
	if _, err := corpus.Copy(rw, r); err != nil {
		return err
	}
	if err := rw.Close(); err != nil {
		return err
	}
	if !bytes.Equal(direct.Bytes(), reenc.Bytes()) {
		return fmt.Errorf("crawl-report: columnar→NDJSON re-encode differs from direct NDJSON (%d vs %d bytes)",
			reenc.Len(), direct.Len())
	}
	return nil
}

// timedReader wraps a corpus.Reader so each Next is a span, and brackets
// the whole decode with two allocation counts: ReadAll calls Next in a
// tight loop, so first-Next to EOF is the decoder's allocations plus the
// page slice's few doublings.
type timedReader struct {
	corpus.Reader
	tr      *tracer
	parent  int32
	started bool
	m0      uint64
	allocs  int64
	pages   int
}

func (r *timedReader) Next() (*har.Page, error) {
	if r.tr != nil && !r.started {
		r.started = true
		r.m0 = mallocs()
	}
	s := r.tr.begin(r.parent, "corpus.col_decode")
	p, err := r.Reader.Next()
	r.tr.end(s)
	if err == nil {
		r.pages++
	} else if err == io.EOF && r.tr != nil {
		r.allocs = int64(mallocs() - r.m0)
	}
	return p, err
}

func (w *crawlReport) iterate(tr *tracer, parent int32, workers int) (iterOut, error) {
	var out iterOut
	cfg := w.cfg
	cfg.Workers = workers

	var col bytes.Buffer
	cw := corpus.NewWriter(&col, corpus.FormatColumnar)
	emitted := 0
	g := tr.beginStage(parent, "webgen.generate")
	res, err := webgen.GenerateStream(cfg, func(p *har.Page) error {
		e := tr.begin(g, "corpus.col_encode")
		err := cw.Write(p)
		tr.end(e)
		emitted++
		return err
	})
	if err == nil {
		e := tr.begin(g, "corpus.col_encode")
		err = cw.Close()
		tr.end(e)
	}
	tr.endStage(g)
	if err != nil {
		return out, err
	}

	f := tr.beginStage(parent, "report.fold")
	rd := &timedReader{Reader: corpus.NewReader(bytes.NewReader(col.Bytes()), corpus.FormatColumnar), tr: tr, parent: f}
	c, err := report.NewCorpusFromReader(rd, res.Failures, workers)
	tr.endStage(f)
	if err != nil {
		return out, err
	}
	if rd.pages != emitted || len(c.DS.Pages) != emitted || emitted != res.Pages {
		return out, fmt.Errorf("crawl-report: emitted %d pages, generator reported %d, decoded %d", emitted, res.Pages, rd.pages)
	}

	s := tr.beginStage(parent, "report.tables")
	_, t1 := c.Table1(5)
	_, t2 := c.Table2(10)
	_, _, t3 := c.Table3()
	tr.endStage(s)
	s = tr.beginStage(parent, "report.figures")
	_, _, f1 := c.Figure1()
	_, f3 := c.Figure3()
	_, _, f4 := c.Figure4()
	_, f5 := c.Figure5()
	_, hl := c.Headline()
	tr.endStage(s)
	s = tr.beginStage(parent, "report.fig9model")
	_, f9 := c.Figure9Model(cdnASN)
	tr.endStage(s)
	s = tr.beginStage(parent, "report.policy")
	_, pol := c.PolicyComparison()
	tr.endStage(s)

	out.ops = emitted
	out.artifacts = [][]byte{col.Bytes(), []byte(strings.Join([]string{t1, t2, t3, f1, f3, f4, f5, hl, f9, pol}, "\n"))}
	out.counters = map[string]float64{
		"webgen.pages":                      float64(emitted),
		"corpus.col_bytes_per_page":         float64(col.Len()) / float64(emitted),
		"corpus.col_decode_allocs_per_page": float64(rd.allocs) / float64(emitted),
		"_decode_allocs":                    float64(rd.allocs),
	}
	return out, nil
}

// --- proto-replay ---

// protoReplay is the -proto-sweep replay loop over a corpus decoded once
// in set-up: every page revisited under h1, h2 and h3 against its own
// warm caches. Nearly all of an iteration is the visit kernel.
type protoReplay struct {
	revisits int
	opts     cache.Options
	ds       *webgen.Dataset
	corpora  map[int]*report.Corpus // by worker count
}

func (w *protoReplay) opUnit() string              { return "page-visit" }
func (w *protoReplay) reference() (iterOut, error) { return w.iterate(nil, noSpan, 1) }

func (w *protoReplay) prepare(seed int64, sz sizes, workers int) error {
	w.revisits = sz.Revisits
	// cmd/report's -cache defaults.
	w.opts = cache.Options{TicketLifetimeSeconds: cache.DefaultTicketLifetimeSeconds}

	cfg := webgen.DefaultConfig()
	cfg.Sites = sz.ReplaySites
	cfg.Seed = seed
	cfg.Workers = workers
	var col bytes.Buffer
	cw := corpus.NewWriter(&col, corpus.FormatColumnar)
	res, err := webgen.GenerateStream(cfg, cw.Write)
	if err != nil {
		return err
	}
	if err := cw.Close(); err != nil {
		return err
	}
	c, err := report.NewCorpusFromReader(corpus.NewReader(bytes.NewReader(col.Bytes()), corpus.FormatColumnar), res.Failures, workers)
	if err != nil {
		return err
	}
	if len(c.DS.Pages) != res.Pages {
		return fmt.Errorf("proto-replay: decoded %d pages, generator emitted %d", len(c.DS.Pages), res.Pages)
	}
	w.ds = c.DS
	w.corpora = map[int]*report.Corpus{workers: c}
	return nil
}

func (w *protoReplay) iterate(tr *tracer, parent int32, workers int) (iterOut, error) {
	var out iterOut
	c := w.corpora[workers]
	if c == nil {
		c = report.NewCorpusWorkers(w.ds, workers)
		w.corpora[workers] = c
	}
	sweep := make([]report.ProtoCosts, 0, len(core.Protocols))
	for _, proto := range core.Protocols {
		s := tr.beginStage(parent, "core.replay."+proto.String())
		visits := c.WarmColdProto(w.revisits, w.opts, proto)
		tr.endStage(s)
		sweep = append(sweep, report.ProtoCosts{Proto: proto, Visits: visits})
	}
	s := tr.begin(parent, "report.tables")
	table := report.ProtoSweepTable(sweep, netsim.DefaultParams(), "corpus")
	tr.end(s)

	var all, h3 core.VisitCosts
	violations := 0
	for _, pc := range sweep {
		for _, vc := range pc.Visits {
			if !vc.Consistent() {
				violations++
			}
			all.Add(vc)
			if pc.Proto == core.ProtoH3 {
				h3.Add(vc)
			}
		}
	}
	out.ops = len(w.ds.Pages) * len(core.Protocols) * w.revisits
	out.failed = violations
	out.artifacts = [][]byte{[]byte(table), []byte(fmt.Sprintf("%+v", sweep))}
	out.counters = map[string]float64{
		"core.page_visits":           float64(out.ops),
		"core.reused_conn_ratio":     ratio(all.ReusedConns, all.ConnsNeeded),
		"core.consistent_violations": float64(violations),
		"cache.dns_hit_ratio":        ratio(all.DNSCacheHits, all.LookupsNeeded()),
		"cache.resume_ratio":         ratio(all.ResumedTLS, all.ResumedTLS+all.FullHandshakes),
		"cache.certmemo_hit_ratio":   ratio(all.CertMemoHits, all.FullHandshakes),
		"quic.zero_rtt_ratio":        ratio(h3.ZeroRTT, h3.ResumedTLS+h3.FullHandshakes),
	}
	return out, nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// --- cdn-deploy ---

// cdnDeploy is the paper's §5 experiment as `cdnsim -phase all` runs it:
// a second visit loop, over a CDN environment, sequential. It has no
// worker knob, so the one-worker reference run is a plain repeat.
type cdnDeploy struct {
	seed   int64
	sample int
}

func (w *cdnDeploy) opUnit() string              { return "zone" }
func (w *cdnDeploy) reference() (iterOut, error) { return w.iterate(nil, noSpan, 1) }

func (w *cdnDeploy) prepare(seed int64, sz sizes, workers int) error {
	w.seed, w.sample = seed, sz.DeploySample
	return nil
}

func (w *cdnDeploy) iterate(tr *tracer, parent int32, workers int) (iterOut, error) {
	var out iterOut
	const days = 28 // cdnsim -days default; the deployment window is its middle half

	s := tr.beginStage(parent, "cdn.setup")
	d := report.NewDeployment(w.sample, w.seed)
	tr.endStage(s)
	s = tr.begin(parent, "cdn.fig6")
	f6 := d.Figure6()
	tr.end(s)
	s = tr.begin(parent, "cdn.fig7_ip")
	_, _, f7a := d.Figure7(cdn.PhaseIP)
	tr.end(s)
	s = tr.begin(parent, "cdn.passive")
	_, pas := d.PassiveIP(5)
	tr.end(s)
	total, sampled := d.CDN.Pipeline().Totals()
	s = tr.begin(parent, "cdn.fig7_origin")
	ctl, exp, f7b := d.Figure7(cdn.PhaseOrigin)
	tr.end(s)
	s = tr.begin(parent, "cdn.fig8")
	_, _, f8 := d.Figure8(days, days/4, days*3/4)
	tr.end(s)
	s = tr.begin(parent, "cdn.fig9")
	_, f9 := d.Figure9Deployment(w.seed)
	tr.end(s)

	zones := len(d.Exp.SampleZones)
	if zones == 0 || ctl.Total+exp.Total != zones {
		return out, fmt.Errorf("cdn-deploy: %d sample zones but the active measurement covered %d", zones, ctl.Total+exp.Total)
	}
	out.ops = zones
	out.artifacts = [][]byte{[]byte(strings.Join([]string{f6, f7a, pas, f7b, f8, f9}, "\n"))}
	out.counters = map[string]float64{
		"cdn.log_sampled_ratio": float64(sampled) / float64(max(total, 1)),
	}
	return out, nil
}

// --- openloop-serve ---

// openloopServe is cmd/loadgen's default run: per-user browser + cache +
// netsim state simulated in parallel, then the sequential per-PoP G/G/c
// queueing pass, then the NDJSON summary.
type openloopServe struct {
	cfg loadgen.Config
}

func (w *openloopServe) opUnit() string              { return "visit" }
func (w *openloopServe) reference() (iterOut, error) { return w.iterate(nil, noSpan, 1) }

func (w *openloopServe) prepare(seed int64, sz sizes, workers int) error {
	w.cfg = loadgen.DefaultConfig()
	w.cfg.Users = sz.Users
	w.cfg.Seed = seed
	return w.cfg.Validate()
}

func (w *openloopServe) iterate(tr *tracer, parent int32, workers int) (iterOut, error) {
	var out iterOut
	cfg := w.cfg
	cfg.Workers = workers
	s := tr.beginStage(parent, "loadgen.run")
	res, err := loadgen.Run(cfg)
	tr.endStage(s)
	if err != nil {
		return out, err
	}
	var buf bytes.Buffer
	s = tr.begin(parent, "loadgen.write_ndjson")
	err = loadgen.WriteNDJSON(&buf, res)
	tr.end(s)
	if err != nil {
		return out, err
	}
	if res.Users != cfg.Users || res.Visits < res.Users {
		return out, fmt.Errorf("openloop-serve: %d users configured, result has %d users / %d visits", cfg.Users, res.Users, res.Visits)
	}
	out.ops = res.Visits
	out.failed = int(res.FailedReqs)
	out.artifacts = [][]byte{buf.Bytes()}
	out.counters = map[string]float64{
		"loadgen.visits":            float64(res.Visits),
		"loadgen.sim_p99_ms":        res.P99Ms,
		"loadgen.sim_mean_wait_ms":  res.MeanWaitMs,
		"loadgen.sim_slo_ratio":     res.SLOAttainment,
		"loadgen.sim_coalesce_rate": res.CoalesceRate,
		"cache.dns_hit_ratio":       float64(res.DNSCacheHits) / float64(max(res.DNSCacheHits+res.DNSQueries, 1)),
		"cache.resume_ratio":        float64(res.ResumedConns) / float64(max(res.ResumedConns+res.FreshConns, 1)),
	}
	return out, nil
}

// --- matrix-sweep ---

// matrixSweep is `cdnsim -matrix`: every persona replays every
// page-archetype corpus under every network profile and resolver
// transport — the third visit loop, with pool caps and preconnects.
type matrixSweep struct {
	cfg scenario.Config
}

func (w *matrixSweep) opUnit() string              { return "cell" }
func (w *matrixSweep) reference() (iterOut, error) { return w.iterate(nil, noSpan, 1) }

func (w *matrixSweep) prepare(seed int64, sz sizes, workers int) error {
	w.cfg = scenario.DefaultConfig()
	w.cfg.Sites = sz.MatrixSites
	w.cfg.Seed = seed
	return nil
}

func (w *matrixSweep) iterate(tr *tracer, parent int32, workers int) (iterOut, error) {
	var out iterOut
	cfg := w.cfg
	cfg.Workers = workers
	s := tr.beginStage(parent, "scenario.run")
	res, err := scenario.Run(cfg)
	tr.endStage(s)
	if err != nil {
		return out, err
	}
	s = tr.begin(parent, "scenario.table")
	table := res.Table()
	tr.end(s)
	var buf bytes.Buffer
	s = tr.begin(parent, "scenario.ndjson")
	err = res.WriteNDJSON(&buf)
	tr.end(s)
	if err != nil {
		return out, err
	}
	if len(res.Cells) == 0 {
		return out, fmt.Errorf("matrix-sweep: no cells")
	}
	preconns, wasted := 0, 0
	var chromeSharded []float64
	for _, c := range res.Cells {
		if c.Pages == 0 || c.Requests == 0 {
			out.failed++
		}
		preconns += c.Preconns
		wasted += c.Wasted
		if c.Persona == "chrome" && c.Archetype == string(webgen.ArchetypeSharded) {
			chromeSharded = append(chromeSharded, c.CoalescePct())
		}
	}
	out.ops = len(res.Cells)
	out.artifacts = [][]byte{[]byte(table), buf.Bytes()}
	out.counters = map[string]float64{
		"scenario.cells": float64(len(res.Cells)),
		"scenario.sim_coalesce_pct.chrome_sharded": mean(chromeSharded),
		"browser.preconnect_wasted_ratio":          ratio(wasted, preconns),
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
