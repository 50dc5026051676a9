package har

import (
	"net/netip"
	"strings"
	"testing"
)

// sampleHAR is a minimal but standard-shaped HAR 1.2 archive: a root
// document, a sharded subresource with full DNS+TLS setup, and a reused
// connection fetch.
const sampleHAR = `{
  "log": {
    "version": "1.2",
    "creator": {"name": "WebPageTest", "version": "21.02"},
    "pages": [
      {
        "id": "page_1",
        "startedDateTime": "2021-02-14T10:00:00.000Z",
        "title": "https://www.example.com/",
        "pageTimings": {"onContentLoad": 900, "onLoad": 1500}
      }
    ],
    "entries": [
      {
        "pageref": "page_1",
        "startedDateTime": "2021-02-14T10:00:00.000Z",
        "time": 350,
        "request": {"method": "GET", "url": "https://www.example.com/", "headers": []},
        "response": {"status": 200, "httpVersion": "h2",
          "content": {"size": 12345, "mimeType": "text/html"}},
        "serverIPAddress": "192.0.2.1",
        "timings": {"blocked": 5, "dns": 20, "connect": 75, "ssl": 45,
          "send": 1, "wait": 150, "receive": 30}
      },
      {
        "pageref": "page_1",
        "startedDateTime": "2021-02-14T10:00:00.400Z",
        "time": 200,
        "request": {"method": "GET", "url": "https://static.example.com/app.js", "headers": []},
        "response": {"status": 200, "httpVersion": "HTTP/2",
          "content": {"size": 54321, "mimeType": "application/javascript"}},
        "serverIPAddress": "192.0.2.2",
        "timings": {"blocked": 2, "dns": 15, "connect": 60, "ssl": 40,
          "send": 1, "wait": 60, "receive": 22}
      },
      {
        "pageref": "page_1",
        "startedDateTime": "2021-02-14T10:00:00.700Z",
        "time": 80,
        "request": {"method": "GET", "url": "https://www.example.com/style.css", "headers": []},
        "response": {"status": 200, "httpVersion": "h2",
          "content": {"size": 999, "mimeType": "text/css"}},
        "serverIPAddress": "192.0.2.1",
        "timings": {"blocked": -1, "dns": -1, "connect": -1, "ssl": -1,
          "send": 1, "wait": 50, "receive": 29}
      }
    ]
  }
}`

func TestImportHAR(t *testing.T) {
	pages, err := ImportHAR(strings.NewReader(sampleHAR), ImportOptions{
		LookupASN: func(a netip.Addr) uint32 {
			if a == netip.MustParseAddr("192.0.2.1") || a == netip.MustParseAddr("192.0.2.2") {
				return 13335
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 {
		t.Fatalf("pages = %d", len(pages))
	}
	p := pages[0]
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if p.Host != "www.example.com" || p.Rank != 0 {
		t.Errorf("page = %s rank %d", p.Host, p.Rank)
	}
	if p.OnLoadMs != 1500 || p.DOMLoadMs != 900 {
		t.Errorf("events = %v / %v", p.DOMLoadMs, p.OnLoadMs)
	}
	if len(p.Entries) != 3 {
		t.Fatalf("entries = %d", len(p.Entries))
	}

	root := p.Entries[0]
	if root.StartedMs != 0 || !root.NewDNS || !root.NewTLS || !root.Secure {
		t.Errorf("root = %+v", root)
	}
	// SSL unfolded out of connect: 75 includes 45 of ssl.
	if root.Timings.Connect != 30 || root.Timings.SSL != 45 {
		t.Errorf("root connect/ssl = %v/%v", root.Timings.Connect, root.Timings.SSL)
	}
	if root.ServerASN != 13335 {
		t.Errorf("root ASN = %d", root.ServerASN)
	}

	shard := p.Entries[1]
	if shard.StartedMs != 400 || shard.Host != "static.example.com" || !shard.NewTLS {
		t.Errorf("shard = %+v", shard)
	}
	if shard.Protocol != "h2" {
		t.Errorf("shard protocol = %s", shard.Protocol)
	}

	reuse := p.Entries[2]
	if reuse.NewDNS || reuse.NewTLS {
		t.Errorf("reused entry marked fresh: %+v", reuse)
	}
	if reuse.Timings.DNS != 0 || reuse.Timings.Connect != 0 {
		t.Errorf("HAR -1 timings not clamped: %+v", reuse.Timings)
	}

	// The page works with the accessors downstream code relies on.
	if p.DNSQueries() != 2 || p.TLSConnections() != 2 {
		t.Errorf("dns=%d tls=%d", p.DNSQueries(), p.TLSConnections())
	}
	for i := range p.Entries {
		if as := p.Entries[i].ServerASN; as != 13335 {
			t.Errorf("entry %d: AS%d, want AS13335", i, as)
		}
	}
}

func TestImportHARErrors(t *testing.T) {
	if _, err := ImportHAR(strings.NewReader("{"), ImportOptions{}); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ImportHAR(strings.NewReader(`{"log":{"entries":[]}}`), ImportOptions{}); err == nil {
		t.Error("empty archive accepted")
	}
	bad := strings.Replace(sampleHAR, "2021-02-14T10:00:00.400Z", "not-a-time", 1)
	if _, err := ImportHAR(strings.NewReader(bad), ImportOptions{}); err == nil {
		t.Error("bad timestamp accepted")
	}
	bad = strings.Replace(sampleHAR, `"url": "https://www.example.com/"`, `"url": "://bad url"`, 1)
	if _, err := ImportHAR(strings.NewReader(bad), ImportOptions{}); err == nil {
		t.Error("bad URL accepted")
	}
}

func TestImportHAREntriesWithoutPageref(t *testing.T) {
	har := strings.ReplaceAll(sampleHAR, `"pageref": "page_1",`, ``)
	pages, err := ImportHAR(strings.NewReader(har), ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 || len(pages[0].Entries) != 3 {
		t.Fatalf("pages = %+v", pages)
	}
}
