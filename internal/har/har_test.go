package har

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func samplePage() *Page {
	ip1 := netip.MustParseAddr("192.0.2.1")
	ip2 := netip.MustParseAddr("192.0.2.2")
	return &Page{
		URL:  "https://www.example.com/",
		Host: "www.example.com",
		Rank: 12,
		Entries: []Entry{
			{
				StartedMs: 0, URL: "https://www.example.com/", Host: "www.example.com",
				Method: "GET", Protocol: "h2", Status: 200, MimeType: "text/html",
				Secure: true, ServerIP: ip1, ServerASN: 13335,
				DNSAnswer: []netip.Addr{ip1}, NewDNS: true, NewTLS: true,
				CertIssuer: "Test CA", CertSANs: []string{"www.example.com"},
				Initiator: -1,
				Timings:   Timings{DNS: 20, Connect: 30, SSL: 40, Send: 1, Wait: 50, Receive: 10},
			},
			{
				StartedMs: 160, URL: "https://static.example.com/app.js", Host: "static.example.com",
				Method: "GET", Protocol: "h2", Status: 200, MimeType: "application/javascript",
				Secure: true, ServerIP: ip2, ServerASN: 13335,
				DNSAnswer: []netip.Addr{ip2}, NewDNS: true, NewTLS: true,
				Initiator: 0, RenderBlocking: true,
				Timings: Timings{Blocked: 5, DNS: 15, Connect: 25, SSL: 35, Send: 1, Wait: 40, Receive: 20},
			},
			{
				StartedMs: 170, URL: "https://tracker.example.net/t.gif", Host: "tracker.example.net",
				Method: "GET", Protocol: "http/1.1", Status: 200, MimeType: "image/gif",
				Secure: true, ServerIP: netip.MustParseAddr("203.0.113.9"), ServerASN: 15169,
				NewDNS: true, NewTLS: true, Initiator: 1,
				Timings: Timings{DNS: 10, Connect: 20, SSL: 30, Send: 1, Wait: 25, Receive: 5},
			},
		},
		DOMLoadMs: 300,
		OnLoadMs:  400,
	}
}

func TestTimingsTotalAndSetup(t *testing.T) {
	tm := Timings{Blocked: 1, DNS: 2, Connect: 3, SSL: 4, Send: 5, Wait: 6, Receive: 7}
	if tm.Total() != 28 {
		t.Errorf("total = %v", tm.Total())
	}
}

func TestPageAccessors(t *testing.T) {
	p := samplePage()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if p.PLT() != 400 {
		t.Errorf("PLT = %v", p.PLT())
	}
	if p.DNSQueries() != 3 || p.TLSConnections() != 3 {
		t.Errorf("dns=%d tls=%d", p.DNSQueries(), p.TLSConnections())
	}
	hosts := p.hosts()
	if len(hosts) != 3 || hosts[0] != "www.example.com" {
		t.Errorf("hosts = %v", hosts)
	}
	if p.Entries[0].EndMs() != 151 {
		t.Errorf("end = %v", p.Entries[0].EndMs())
	}
}

func TestPLTFallsBackToLastEntry(t *testing.T) {
	p := samplePage()
	p.OnLoadMs = 0
	want := p.LastEntryEnd()
	if p.PLT() != want {
		t.Errorf("PLT = %v, want %v", p.PLT(), want)
	}
}

func TestValidateCatchesBadPages(t *testing.T) {
	p := samplePage()
	p.Entries = nil
	if p.validate() == nil {
		t.Error("empty page validated")
	}

	p = samplePage()
	p.Entries[0].Initiator = 0
	if p.validate() == nil {
		t.Error("non-root entry 0 validated")
	}

	p = samplePage()
	p.Entries[2].Initiator = 5
	if p.validate() == nil {
		t.Error("forward initiator validated")
	}

	p = samplePage()
	p.Entries[1].Timings.DNS = -3
	if p.validate() == nil {
		t.Error("negative timing validated")
	}

	p = samplePage()
	p.Entries[1].StartedMs = -100
	if p.validate() == nil {
		t.Error("child starting before parent validated")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := []*Page{samplePage(), samplePage()}
	in[1].Rank = 99
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, p := range in {
		if err := enc.Encode(p); err != nil {
			t.Fatal(err)
		}
	}
	var out []*Page
	for dec := json.NewDecoder(&buf); dec.More(); {
		var p Page
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		out = append(out, &p)
	}
	if len(out) != 2 || out[1].Rank != 99 {
		t.Fatalf("read %d pages", len(out))
	}
	if out[0].Entries[0].ServerIP != in[0].Entries[0].ServerIP {
		t.Error("server IP lost in round trip")
	}
	if out[0].Entries[0].CertSANs[0] != "www.example.com" {
		t.Error("cert SANs lost")
	}
	if out[0].Entries[1].Timings != in[0].Entries[1].Timings {
		t.Error("timings lost")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := samplePage()
	q := p.Clone()
	q.Entries[0].Timings.DNS = 999
	q.Entries[0].CertSANs[0] = "mutated"
	q.Entries[0].DNSAnswer[0] = netip.MustParseAddr("203.0.113.200")
	if p.Entries[0].Timings.DNS == 999 {
		t.Error("clone shares timings")
	}
	if p.Entries[0].CertSANs[0] == "mutated" {
		t.Error("clone shares cert SANs")
	}
	if p.Entries[0].DNSAnswer[0] == netip.MustParseAddr("203.0.113.200") {
		t.Error("clone shares DNS answers")
	}
}

func TestWaterfallRendering(t *testing.T) {
	p := samplePage()
	w := Waterfall(p, 60)
	if !strings.Contains(w, "www.example.com") {
		t.Error("waterfall missing host")
	}
	if !strings.Contains(w, "D") || !strings.Contains(w, "S") {
		t.Error("waterfall missing phase bars")
	}
	lines := strings.Split(strings.TrimSpace(w), "\n")
	if len(lines) != 4 { // title + 3 entries
		t.Errorf("waterfall lines = %d", len(lines))
	}
}

func TestTimingsTotalNonNegativeQuick(t *testing.T) {
	f := func(b, d, c, s, sn, wt, r float64) bool {
		abs := func(x float64) float64 {
			if x < 0 {
				return -x
			}
			return x
		}
		tm := Timings{Blocked: abs(b), DNS: abs(d), Connect: abs(c), SSL: abs(s), Send: abs(sn), Wait: abs(wt), Receive: abs(r)}
		return tm.Total() >= tm.DNS+tm.Connect+tm.SSL
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// hosts returns the distinct hostnames contacted, in first-use order.
func (p *Page) hosts() []string {
	seen := map[string]bool{}
	var out []string
	for i := range p.Entries {
		host := p.Entries[i].Host
		if !seen[host] {
			seen[host] = true
			out = append(out, host)
		}
	}
	return out
}
