package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"time"

	"respectorigin/internal/browser"
	"respectorigin/internal/cache"
	"respectorigin/internal/certs"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/dns"
	"respectorigin/internal/doh"
	"respectorigin/internal/faults"
	"respectorigin/internal/h2"
	"respectorigin/internal/har"
	"respectorigin/internal/hpack"
	"respectorigin/internal/loadgen"
	"respectorigin/internal/netsim"
	"respectorigin/internal/obs"
	"respectorigin/internal/qpack"
	"respectorigin/internal/quic"
	"respectorigin/internal/report"
	"respectorigin/internal/webgen"
)

// runProbes measures single layers in isolation with fixed call counts,
// after the traced iterations. Each probe prices one layer's public
// calls the way a workload uses them, so a change to that layer shows
// here even when the end-to-end number hides it. Probes do not depend on
// which workload ran; sizes scale only between the full and toy runs.
func runProbes(seed int64, sz sizes, vals map[string]float64) error {
	n := sz.ProbeCalls
	for _, p := range []func(int64, sizes, int, map[string]float64) error{
		probeCorpusAndObs, probeArchetypes, probeBrowser, probeCache, probeQUIC,
		probeCDNVisit, probeNetsim, probeFlash, probeFramer, probeHPACK,
		probeCertsDNS, probeDoH,
	} {
		runtime.GC()
		if err := p(seed, sz, n, vals); err != nil {
			return err
		}
	}
	return nil
}

// perCall times n calls of f and returns ns per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probeCorpusAndObs generates a quarter of crawl-report's corpus once
// and reuses the pages: NDJSON encode and decode (the default -format,
// priced here and not as a workload because it is encoding/json's time;
// multiply by four to set beside corpus.col_*_ms), and the cost of
// emitting page events into a Trace relative to generating the pages.
func probeCorpusAndObs(seed int64, sz sizes, n int, vals map[string]float64) error {
	cfg := webgen.DefaultConfig()
	cfg.Sites, cfg.Seed, cfg.Workers = sz.CrawlSites/4, seed, runtime.GOMAXPROCS(0)
	var pages []*har.Page
	t0 := time.Now()
	if _, err := webgen.GenerateStream(cfg, func(p *har.Page) error {
		pages = append(pages, p)
		return nil
	}); err != nil {
		return err
	}
	generate := time.Since(t0)

	var nd bytes.Buffer
	t0 = time.Now()
	w := corpus.NewWriter(&nd, corpus.FormatNDJSON)
	for _, p := range pages {
		if err := w.Write(p); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	vals["corpus.ndjson_encode_ms"] = ms(time.Since(t0))

	t0 = time.Now()
	decoded, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(nd.Bytes()), corpus.FormatNDJSON))
	if err != nil {
		return err
	}
	vals["corpus.ndjson_decode_ms"] = ms(time.Since(t0))
	if len(decoded) != len(pages) {
		return fmt.Errorf("probe: NDJSON round trip returned %d of %d pages", len(decoded), len(pages))
	}

	trace := obs.NewTrace()
	t0 = time.Now()
	for _, p := range pages {
		core.EmitPageEvents(trace, p)
	}
	emit := time.Since(t0)
	vals["obs.recorder_on_ratio"] = float64(generate+emit) / float64(generate)

	tr := obs.NewTrace()
	vals["obs.trace_event_ns"] = perCall(n, func(i int) {
		tr.Event(obs.Event{Rank: i, Seq: i & 7, Kind: obs.KindDNSQuery, Host: "host.example", MS: 1.5})
	})
	return nil
}

// probeArchetypes prices the two non-baseline page universes the matrix
// generates (sharded, migration) at the matrix's site count.
func probeArchetypes(seed int64, sz sizes, n int, vals map[string]float64) error {
	t0 := time.Now()
	for _, a := range []webgen.Archetype{webgen.ArchetypeSharded, webgen.ArchetypeMigration} {
		cfg := webgen.DefaultConfig()
		cfg.Sites, cfg.Seed, cfg.Workers, cfg.Archetype = sz.MatrixSites, seed, runtime.GOMAXPROCS(0), a
		if _, err := webgen.GenerateStream(cfg, func(*har.Page) error { return nil }); err != nil {
			return err
		}
	}
	vals["webgen.archetype_ms"] = ms(time.Since(t0))
	return nil
}

// probeSample is the deployment sample the browser and cdn probes visit.
func probeSample(sz sizes) int { return max(sz.DeploySample/10, 50) }

// probeBrowser drives Browser.Request for each policy against a cdn.CDN
// environment in the IP-coalescing phase: the zone's own host, then the
// shared third party, on a fresh pool per zone.
func probeBrowser(seed int64, sz sizes, n int, vals map[string]float64) error {
	d := report.NewDeployment(probeSample(sz), seed)
	d.CDN.EnterPhaseIP()
	defer d.CDN.ExitExperiment()
	requests, coalesced, got421 := 0, 0, 0
	rounds := max(n/(len(d.Exp.SampleZones)*6), 1)
	m0 := mallocs()
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, policy := range []browser.Policy{browser.PolicyChromium, browser.PolicyFirefox, browser.PolicyFirefoxOrigin} {
			for _, z := range d.Exp.SampleZones {
				b := browser.New(policy)
				b.Request(d.CDN, z.Host)
				out := b.Request(d.CDN, d.CDN.ThirdParty)
				requests += 2
				if out.Coalesced() {
					coalesced++
				}
				if out.Got421 {
					got421++
				}
			}
		}
	}
	elapsed := time.Since(t0)
	vals["browser.request_ns"] = float64(elapsed) / float64(requests)
	vals["browser.request_allocs"] = float64(mallocs()-m0) / float64(requests)
	vals["browser.coalesce_ratio"] = float64(coalesced) / float64(requests/2)
	vals["browser.fallback_421"] = float64(got421) / float64(rounds)
	return nil
}

// probeCache prices the two warm-path lookups a visit makes most: a DNS
// cache hit, and redeeming a session ticket from a store holding a
// page's worth of certificates (the store scans tickets oldest-first, so
// its size is part of the price).
func probeCache(seed int64, sz sizes, n int, vals map[string]float64) error {
	c := cache.New(cache.Options{})
	const names, certs = 256, 8
	hosts := make([]string, names)
	addr := []netip.Addr{netip.MustParseAddr("192.0.2.1")}
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d.cache.test", i)
		c.PutDNS(hosts[i], addr, 300)
		if i < certs {
			c.StoreTicketProto([]string{hosts[i]}, cache.ProtoWireH2)
		}
	}
	misses := 0
	vals["cache.dns_lookup_ns"] = perCall(n, func(i int) {
		if _, _, ok := c.LookupDNS(hosts[i%names]); !ok {
			misses++
		}
	})
	vals["cache.ticket_redeem_ns"] = perCall(n, func(i int) {
		if !c.RedeemTicketProto(hosts[i%certs], cache.ProtoWireH2) {
			misses++
		}
	})
	if misses != 0 {
		return fmt.Errorf("probe: %d warm cache lookups missed", misses)
	}
	return nil
}

var probeFields = []hpack.HeaderField{
	{Name: ":method", Value: "GET"},
	{Name: ":scheme", Value: "https"},
	{Name: ":authority", Value: "www.example.com"},
	{Name: ":path", Value: "/static/js/app.bundle.min.js?v=20220413"},
	{Name: "accept-encoding", Value: "gzip, deflate, br"},
	{Name: "user-agent", Value: "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36"},
	{Name: "cache-control", Value: "no-cache"},
}

func probeQUIC(seed int64, sz sizes, n int, vals map[string]float64) error {
	// Every establishment mints a ticket and a token, and redemption
	// scans them, so the stores are kept at the size one page visit's
	// connections leave behind: a fresh cache every eight connections.
	sans := []string{"www.quic.test", "static.quic.test"}
	var c *cache.Cache
	warm := 0
	vals["quic.establish_ns"] = perCall(n, func(i int) {
		if i%8 == 0 {
			c = cache.New(cache.Options{})
		}
		if quic.Establish(c, sans[i&1], sans).ZeroRTT() {
			warm++
		}
	})
	if want := n - (n+7)/8; warm != want {
		return fmt.Errorf("probe: %d of %d QUIC establishments were 0-RTT, want %d", warm, n, want)
	}
	var enc qpack.Encoder
	var dec qpack.Decoder
	sec := enc.AppendFieldSection(nil, probeFields)
	buf := make([]byte, 0, len(sec))
	vals["qpack.encode_ns"] = perCall(n, func(int) { buf = enc.AppendFieldSection(buf[:0], probeFields) })
	var err error
	vals["qpack.decode_ns"] = perCall(n, func(int) {
		if _, e := dec.DecodeFieldSection(sec); e != nil {
			err = e
		}
	})
	return err
}

// probeCDNVisit prices Experiment.Visit (the §5 visit loop's unit) with
// and without a 5 % reset plan, on active-measurement visits.
func probeCDNVisit(seed int64, sz sizes, n int, vals map[string]float64) error {
	for _, p := range []struct {
		metric string
		d      *report.Deployment
	}{
		{"cdn.visit_us", report.NewDeployment(probeSample(sz), seed)},
		{"cdn.faulted_visit_us", report.NewDeploymentWithFaults(probeSample(sz), seed, faults.Plan{ResetProb: 0.05}, 1)},
	} {
		p.d.CDN.EnterPhaseIP()
		zones := p.d.Exp.SampleZones
		vals[p.metric] = perCall(max(n/20, len(zones)), func(i int) {
			p.d.Exp.Visit(zones[i%len(zones)], "firefox", -1)
		}) / 1e3
		p.d.CDN.ExitExperiment()
	}
	return nil
}

func probeNetsim(seed int64, sz sizes, n int, vals map[string]float64) error {
	net := netsim.New(netsim.DefaultParams(), seed)
	sum := 0.0
	vals["netsim.draw_ns"] = perCall(n, func(int) { sum += net.TLSTime(3, 1) + net.TransferTime(20000) }) / 2
	var err error
	vals["netsim.checked_new_ns"] = perCall(n/100, func(i int) {
		if _, e := netsim.NewChecked(netsim.DefaultParams(), seed+int64(i)); e != nil {
			err = e
		}
	})
	if sum <= 0 {
		return fmt.Errorf("probe: netsim drew no time")
	}
	return err
}

// probeFlash is openloop-serve's run under the flash-crowd arrival
// process: the same users, but a burst that overloads the queueing pass.
func probeFlash(seed int64, sz sizes, n int, vals map[string]float64) error {
	cfg := loadgen.DefaultConfig()
	cfg.Users, cfg.Seed, cfg.Workers, cfg.Arrival = sz.Users, seed, runtime.GOMAXPROCS(0), loadgen.ArrivalFlash
	t0 := time.Now()
	_, err := loadgen.Run(cfg)
	vals["loadgen.flash_run_ms"] = ms(time.Since(t0))
	return err
}

// loopReader replays one encoded byte stream forever.
type loopReader struct {
	frames []byte
	off    int
}

func (lr *loopReader) Read(p []byte) (int, error) {
	n := copy(p, lr.frames[lr.off:])
	lr.off = (lr.off + n) % len(lr.frames)
	return n, nil
}

func probeFramer(seed int64, sz sizes, n int, vals map[string]float64) error {
	const size = 16384
	data := make([]byte, size)
	var enc bytes.Buffer
	if err := h2.NewFramer(&enc, nil).WriteData(1, false, data); err != nil {
		return err
	}
	rd := h2.NewFramer(io.Discard, &loopReader{frames: enc.Bytes()})
	var err error
	vals["h2.framer_read_ns"] = perCall(n, func(int) {
		if _, e := rd.ReadFrame(); e != nil {
			err = e
		}
	})
	wr := h2.NewFramer(io.Discard, nil)
	vals["h2.framer_write_ns"] = perCall(n, func(int) {
		if e := wr.WriteData(1, false, data); e != nil {
			err = e
		}
	})
	return err
}

func probeHPACK(seed int64, sz sizes, n int, vals map[string]float64) error {
	enc := hpack.NewEncoder()
	blk := enc.AppendHeaderBlock(nil, probeFields)
	buf := make([]byte, 0, len(blk))
	vals["hpack.encode_ns"] = perCall(n, func(int) { buf = enc.AppendHeaderBlock(buf[:0], probeFields) })
	dec := hpack.NewDecoder()
	var err error
	vals["hpack.decode_ns"] = perCall(n, func(int) {
		if _, e := dec.DecodeFull(blk); e != nil {
			err = e
		}
	})
	var huff [][]byte
	total := 0
	for _, f := range probeFields {
		e := hpack.AppendHuffmanString(nil, f.Value)
		huff = append(huff, e)
		total += len(f.Value)
	}
	perRound := perCall(n/len(huff), func(int) {
		for _, e := range huff {
			if _, e := hpack.HuffmanDecode(e, 0); e != nil {
				err = e
			}
		}
	})
	vals["hpack.huffman_decode_mb_s"] = float64(total) / 1e6 / (perRound / 1e9)
	return err
}

func probeCertsDNS(seed int64, sz sizes, n int, vals map[string]float64) error {
	ca, err := certs.NewCA("probe CA")
	if err != nil {
		return err
	}
	var leaf *certs.Leaf
	issue := make([]float64, 9)
	for i := range issue {
		t0 := time.Now()
		if leaf, err = ca.Issue(h2Hosts...); err != nil {
			return err
		}
		issue[i] = ms(time.Since(t0))
	}
	vals["certs.issue_ms"] = median(issue)
	vals["certs.chain_bytes"] = float64(leaf.ChainWireSize())

	auth := dns.NewAuthority()
	const names = 64
	hosts := make([]string, names)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d.dns.test", i)
		auth.AddA(hosts[i], netip.MustParseAddr("192.0.2.7"), netip.MustParseAddr("192.0.2.8"))
	}
	res := dns.NewResolver(auth)
	vals["dns.resolve_ns"] = perCall(n/10, func(i int) {
		if _, e := res.LookupA(hosts[i%names]); e != nil {
			err = e
		}
	})
	return err
}

// probeDoH resolves over an h2 connection on an in-memory pipe (no TLS:
// the handshake is h2-live's to price).
func probeDoH(seed int64, sz sizes, n int, vals map[string]float64) error {
	auth := dns.NewAuthority()
	auth.AddA("www.doh.test", netip.MustParseAddr("192.0.2.9"))
	srv := &h2.Server{Handler: &doh.Handler{Authority: auth}}
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeConn(serverEnd) // ends with the client's close
	}()
	cc, err := h2.NewClientConn(clientEnd, h2.ClientConnOptions{Origin: "doh.resolver.test"})
	if err != nil {
		return err
	}
	client := doh.NewClient(cc, "doh.resolver.test")
	vals["doh.resolve_us"] = perCall(max(n/100, 20), func(int) {
		if _, e := client.LookupA("www.doh.test"); e != nil {
			err = e
		}
	}) / 1e3
	cc.Close()
	<-done
	return err
}
