package har

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"net/url"
	"sort"
	"strings"
	"time"
)

// This file imports standard HAR 1.2 archives — the format WebPageTest
// and browser DevTools export, and the format the paper's crawl stored
// (§3.1) — into this repository's page model, so the §4 pipeline can
// run over real captures as well as synthetic corpora.

// harFile mirrors the HAR 1.2 structure we consume.
type harFile struct {
	Log struct {
		Pages []struct {
			ID              string `json:"id"`
			StartedDateTime string `json:"startedDateTime"`
			Title           string `json:"title"`
			PageTimings     struct {
				OnContentLoad float64 `json:"onContentLoad"`
				OnLoad        float64 `json:"onLoad"`
			} `json:"pageTimings"`
		} `json:"pages"`
		Entries []harEntry `json:"entries"`
	} `json:"log"`
}

type harEntry struct {
	Pageref         string  `json:"pageref"`
	StartedDateTime string  `json:"startedDateTime"`
	Time            float64 `json:"time"`
	Request         struct {
		Method  string `json:"method"`
		URL     string `json:"url"`
		Headers []struct {
			Name  string `json:"name"`
			Value string `json:"value"`
		} `json:"headers"`
	} `json:"request"`
	Response struct {
		Status  int `json:"status"`
		Content struct {
			Size     int64  `json:"size"`
			MimeType string `json:"mimeType"`
		} `json:"content"`
		HTTPVersion string `json:"httpVersion"`
	} `json:"response"`
	ServerIPAddress string `json:"serverIPAddress"`
	Timings         struct {
		Blocked float64 `json:"blocked"`
		DNS     float64 `json:"dns"`
		Connect float64 `json:"connect"`
		SSL     float64 `json:"ssl"`
		Send    float64 `json:"send"`
		Wait    float64 `json:"wait"`
		Receive float64 `json:"receive"`
	} `json:"timings"`
}

// ImportOptions configures HAR 1.2 import.
type ImportOptions struct {
	// LookupASN resolves a server address to its origin AS; nil leaves
	// ServerASN zero (the §4 model then falls back to per-IP services).
	LookupASN func(netip.Addr) uint32
}

// ImportHAR parses a standard HAR 1.2 archive into pages. Entries are
// grouped by pageref (entries without one join the first page), ordered
// by start time, and re-based so each page starts at 0 ms. Initiator
// relationships are not recorded in HAR 1.2; the importer approximates
// them by nesting each request under the latest request that started
// before it (the root for the earliest).
func ImportHAR(r io.Reader, opts ImportOptions) ([]*Page, error) {
	var f harFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("har: parsing archive: %w", err)
	}
	if len(f.Log.Entries) == 0 {
		return nil, fmt.Errorf("har: archive has no entries")
	}

	byPage := map[string][]harEntry{}
	var pageOrder []string
	addPage := func(id string) {
		if _, ok := byPage[id]; !ok {
			byPage[id] = nil
			pageOrder = append(pageOrder, id)
		}
	}
	for _, p := range f.Log.Pages {
		addPage(p.ID)
	}
	for _, e := range f.Log.Entries {
		id := e.Pageref
		if id == "" {
			if len(pageOrder) == 0 {
				addPage("page_0")
			}
			id = pageOrder[0]
		}
		addPage(id)
		byPage[id] = append(byPage[id], e)
	}

	var out []*Page
	for _, id := range pageOrder {
		entries := byPage[id]
		if len(entries) == 0 {
			continue
		}
		page, err := buildPage(id, entries, &f, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, page)
	}
	return out, nil
}

func buildPage(id string, entries []harEntry, f *harFile, opts ImportOptions) (*Page, error) {
	type timed struct {
		e     harEntry
		start time.Time
	}
	ts := make([]timed, 0, len(entries))
	for _, e := range entries {
		t, err := time.Parse(time.RFC3339Nano, e.StartedDateTime)
		if err != nil {
			return nil, fmt.Errorf("har: entry time %q: %w", e.StartedDateTime, err)
		}
		ts = append(ts, timed{e, t})
	}
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].start.Before(ts[j].start) })
	base := ts[0].start

	page := &Page{}
	seenDNSHost := map[string]bool{}
	for i, te := range ts {
		e := te.e
		u, err := url.Parse(e.Request.URL)
		if err != nil {
			return nil, fmt.Errorf("har: entry URL %q: %w", e.Request.URL, err)
		}
		host := u.Hostname()
		entry := Entry{
			StartedMs: te.start.Sub(base).Seconds() * 1000,
			URL:       e.Request.URL,
			Host:      host,
			Method:    e.Request.Method,
			Protocol:  normalizeProto(e.Response.HTTPVersion),
			Status:    e.Response.Status,
			MimeType:  e.Response.Content.MimeType,
			BodySize:  e.Response.Content.Size,
			Secure:    u.Scheme == "https",
			Initiator: -1,
		}
		if e.ServerIPAddress != "" {
			if a, err := netip.ParseAddr(strings.Trim(e.ServerIPAddress, "[]")); err == nil {
				entry.ServerIP = a
				if opts.LookupASN != nil {
					entry.ServerASN = opts.LookupASN(a)
				}
			}
		}
		entry.Timings = Timings{
			Blocked: clampNeg(e.Timings.Blocked),
			DNS:     clampNeg(e.Timings.DNS),
			Connect: clampNeg(e.Timings.Connect),
			SSL:     clampNeg(e.Timings.SSL),
			Send:    clampNeg(e.Timings.Send),
			Wait:    clampNeg(e.Timings.Wait),
			Receive: clampNeg(e.Timings.Receive),
		}
		// HAR folds SSL time into connect in some exporters; when both
		// are present, connect includes ssl — unfold it.
		if entry.Timings.SSL > 0 && entry.Timings.Connect >= entry.Timings.SSL {
			entry.Timings.Connect -= entry.Timings.SSL
		}
		entry.NewDNS = entry.Timings.DNS > 0 || (!seenDNSHost[host] && i == 0)
		if entry.Timings.DNS > 0 {
			seenDNSHost[host] = true
		}
		entry.NewTLS = entry.Timings.SSL > 0
		if i > 0 {
			// Approximate initiators: the latest earlier entry.
			entry.Initiator = i - 1
			for j := i - 1; j >= 0; j-- {
				if page.Entries[j].StartedMs <= entry.StartedMs {
					entry.Initiator = j
					break
				}
			}
		}
		page.Entries = append(page.Entries, entry)
	}
	page.URL = page.Entries[0].URL
	page.Host = page.Entries[0].Host

	for _, p := range f.Log.Pages {
		if p.ID == id {
			page.DOMLoadMs = clampNeg(p.PageTimings.OnContentLoad)
			page.OnLoadMs = clampNeg(p.PageTimings.OnLoad)
		}
	}
	if page.OnLoadMs == 0 {
		page.OnLoadMs = page.LastEntryEnd()
	}
	return page, page.validate()
}

func clampNeg(v float64) float64 {
	if v < 0 { // HAR uses -1 for "not applicable"
		return 0
	}
	return v
}

func normalizeProto(v string) string {
	switch strings.ToLower(v) {
	case "h2", "http/2", "http/2.0", "http/2+quic/43":
		return "h2"
	case "h3", "http/3", "http/3.0":
		return "h3"
	case "http/1.1":
		return "http/1.1"
	case "http/1.0":
		return "http/1.0"
	case "":
		return "unknown"
	default:
		return strings.ToLower(v)
	}
}
