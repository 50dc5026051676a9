package report

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"respectorigin/internal/core"
	"respectorigin/internal/faults"
	"respectorigin/internal/obs"
	"respectorigin/internal/webgen"
)

func smallDataset(t *testing.T) *webgen.Dataset {
	t.Helper()
	cfg := webgen.DefaultConfig()
	cfg.Sites = 80
	cfg.Seed = 7
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// traceEvents reads a trace back the way report -funnel does: written
// as NDJSON, then parsed.
func traceEvents(t *testing.T, trace *obs.Trace) []obs.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// eventLog is a recorder that keeps every event in emission order.
type eventLog []obs.Event

func (l *eventLog) Count(string, int64) {}
func (l *eventLog) Event(ev obs.Event)  { *l = append(*l, ev) }

// TestFunnelCrossChecksFigure3 is the tentpole's correctness anchor:
// the funnel rebuilt from a crawl trace must reproduce the Figure 3
// inputs exactly — same measured DNS/TLS sums, same ideal-IP and
// ideal-ORIGIN predictions — because the page_end events carry the
// §4.2 counts and the per-event streams sum to the same tallies.
func TestFunnelCrossChecksFigure3(t *testing.T) {
	ds := smallDataset(t)
	trace := obs.NewTrace()
	for _, p := range ds.Pages {
		core.EmitPageEvents(trace, p)
	}
	f := FunnelFromEvents(traceEvents(t, trace))

	if f.Pages != len(ds.Pages) || f.SummaryPages != len(ds.Pages) {
		t.Fatalf("pages = %d/%d, want %d", f.Pages, f.SummaryPages, len(ds.Pages))
	}

	c := NewCorpusWorkers(ds, 0)
	var dns, tls, ip, origin int
	for _, pc := range get[*modelAcc](c, partModel).counts {
		dns += pc.MeasuredDNS
		tls += pc.MeasuredTLS
		ip += pc.IdealIP
		origin += pc.IdealOrigin
	}
	if f.MeasuredDNS != dns || f.MeasuredTLS != tls {
		t.Errorf("summary sums: DNS=%d TLS=%d, want %d and %d", f.MeasuredDNS, f.MeasuredTLS, dns, tls)
	}
	if f.IdealIP != ip || f.IdealOrigin != origin {
		t.Errorf("ideal sums: IP=%d ORIGIN=%d, want %d and %d", f.IdealIP, f.IdealOrigin, ip, origin)
	}
	// The per-event stream must agree with the page_end summaries: one
	// dns_query event per measured query, one tls_handshake per
	// measured handshake (including the race-effect extras).
	if f.DNSQueries != dns {
		t.Errorf("dns_query events = %d, want %d", f.DNSQueries, dns)
	}
	if f.TLSHandshakes != tls {
		t.Errorf("tls_handshake events = %d, want %d", f.TLSHandshakes, tls)
	}

	text := f.TableString()
	if !strings.Contains(text, "Model cross-check") {
		t.Errorf("crawl funnel missing model section:\n%s", text)
	}
	if !strings.Contains(text, "ideal ORIGIN") {
		t.Errorf("funnel missing ORIGIN row:\n%s", text)
	}
}

// TestFunnelNDJSONRoundTrip checks that a funnel computed from a trace
// written to NDJSON and read back is identical to one computed from
// the in-memory events.
func TestFunnelNDJSONRoundTrip(t *testing.T) {
	ds := smallDataset(t)
	trace := obs.NewTrace()
	var emitted eventLog
	rec := obs.Multi(trace, &emitted)
	for _, p := range ds.Pages {
		core.EmitPageEvents(rec, p)
	}
	if got, want := FunnelFromEvents(traceEvents(t, trace)), FunnelFromEvents(emitted); got != want {
		t.Errorf("round-tripped funnel differs:\n got %+v\nwant %+v", got, want)
	}
}

// visitDay runs day 0 of d as the visit loop runs a faulted or traced
// day: every sample zone, visited as many times as cdn visits a zone a
// day (4), the user agents taken in turn.
func visitDay(d *Deployment) {
	uas := []string{"firefox", "chrome", "legacy"}
	for _, z := range d.Exp.SampleZones {
		for v := 0; v < 4; v++ {
			d.Exp.Visit(z, uas[v%len(uas)], 0)
		}
	}
}

// TestDeploymentTraceFunnel traces a faulted deployment run and checks
// the funnel reflects the experiment's own accounting, and that two
// identical runs serialize to byte-identical NDJSON.
func TestDeploymentTraceFunnel(t *testing.T) {
	run := func() (*obs.Trace, *obs.Metrics, *Deployment) {
		d := NewDeploymentWithFaults(150, 3, faults.Plan{ResetProb: 0.05, DNSFailProb: 0.02}, 2)
		trace := obs.NewTrace()
		metrics := obs.NewMetrics()
		d.Exp.Rec = obs.Multi(trace, metrics)
		visitDay(d)
		return trace, metrics, d
	}
	trace, metrics, _ := run()

	f := FunnelFromEvents(traceEvents(t, trace))
	if got := metric(metrics, "cdn.visits"); int64(f.Pages) != got {
		t.Errorf("funnel pages = %d, cdn.visits = %d", f.Pages, got)
	}
	if f.SummaryPages != 0 {
		t.Errorf("deployment trace carried %d §4.2 summaries, want 0", f.SummaryPages)
	}
	if int64(f.Retries) != metric(metrics, "cdn.retries") {
		t.Errorf("retry events = %d, cdn.retries = %d", f.Retries, metric(metrics, "cdn.retries"))
	}
	if int64(f.Misdirected421) != metric(metrics, "cdn.misdirected_421") {
		t.Errorf("421 events = %d, cdn.misdirected_421 = %d", f.Misdirected421, metric(metrics, "cdn.misdirected_421"))
	}
	if strings.Contains(f.TableString(), "Model cross-check") {
		t.Error("deployment funnel printed a model section with no summaries")
	}

	var a, b bytes.Buffer
	if err := trace.WriteNDJSON(&a); err != nil {
		t.Fatal(err)
	}
	trace2, _, _ := run()
	if err := trace2.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical traced runs serialized differently")
	}
}

// metric reads one counter from m's text rendering (0 if never written).
func metric(m *obs.Metrics, name string) int64 {
	for _, line := range strings.Split(m.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			n, _ := strconv.ParseInt(f[1], 10, 64)
			return n
		}
	}
	return 0
}
