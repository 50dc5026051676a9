package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"respectorigin/internal/clitest"
)

// twoEntryHAR is a HAR 1.2 archive of one page: the document from an
// address the prefix file covers, a script from one it does not.
const twoEntryHAR = `{"log": {"version": "1.2",
  "pages": [{"id": "p", "startedDateTime": "2021-02-14T10:00:00.000Z",
    "title": "https://www.example.com/", "pageTimings": {"onContentLoad": 300, "onLoad": 600}}],
  "entries": [
    {"pageref": "p", "startedDateTime": "2021-02-14T10:00:00.000Z", "time": 200,
     "request": {"method": "GET", "url": "https://www.example.com/", "headers": []},
     "response": {"status": 200, "httpVersion": "h2", "content": {"size": 1000, "mimeType": "text/html"}},
     "serverIPAddress": "192.0.2.1",
     "timings": {"blocked": 1, "dns": 20, "connect": 60, "ssl": 40, "send": 1, "wait": 50, "receive": 28}},
    {"pageref": "p", "startedDateTime": "2021-02-14T10:00:00.300Z", "time": 150,
     "request": {"method": "GET", "url": "https://cdn.elsewhere.net/app.js", "headers": []},
     "response": {"status": 200, "httpVersion": "h2", "content": {"size": 2000, "mimeType": "application/javascript"}},
     "serverIPAddress": "203.0.113.7",
     "timings": {"blocked": 1, "dns": 15, "connect": 50, "ssl": 30, "send": 1, "wait": 40, "receive": 13}}]}}`

// report -har -asn is the one input whose AS numbers and names come from
// a prefix file: Table 2 names the AS the file names, an address the
// file does not cover lands in AS 0 with no name, and a malformed prefix
// line fails the run.
func TestHARImportNamesASesFromPrefixFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	archive := write("page.har", twoEntryHAR)
	prefixes := write("prefixes.txt", "# prefix asn org\n192.0.2.0/24 AS64500 Example Hosting Ltd\n198.51.100.0/24 64501 Unused Net\n")
	report := clitest.Build(t, "cmd/report")

	rows := map[string]bool{}
	for _, line := range strings.Split(string(clitest.Run(t, report, "-har", archive, "-asn", prefixes, "-table", "2")), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && strings.HasPrefix(f[1], "AS") {
			// rank, key, count, share: the key is what lies between.
			rows[strings.Join(f[1:len(f)-2], " ")] = true
		}
	}
	if !rows["AS64500 Example Hosting Ltd"] || !rows["AS0"] || len(rows) != 2 {
		t.Errorf("Table 2 rows = %v, want AS64500 named from the prefix file and a nameless AS0", rows)
	}

	clitest.RunExpectFail(t, report, "-har", archive, "-asn", write("bad.txt", "192.0.2.0/24 AS64500 Example\nnot-a-prefix AS1 X\n"), "-table", "2")
}
