package conformance

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/clitest"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/report"
	"respectorigin/internal/webgen"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from the current outputs")

// artifact is one output the goldens pin. A small one (no summary) is
// kept verbatim as testdata/<name>; a large one is pinned by a
// "name sha256 length summary" line of its golden file, where the
// summary says what moved when the hash does.
type artifact struct {
	name    string
	data    []byte
	summary string
}

// checkGolden compares each small artifact with its testdata/ copy and
// each large one with its line of testdata/<file>, reporting the first
// differing lines of a small one and the summary fields that moved in
// a large one. RunReplay and the CI byte-diff steps only compare runs
// of one build with each other, so a change that shifts every run
// equally passes them; these goldens pin the bytes themselves.
func checkGolden(t *testing.T, file string, arts []artifact) {
	t.Helper()
	var got bytes.Buffer
	for _, a := range arts {
		if a.summary == "" {
			checkVerbatim(t, a)
			continue
		}
		fmt.Fprintf(&got, "%s %x %d %s\n", a.name, sha256.Sum256(a.data), len(a.data), a.summary)
	}
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/conformance -update to record)", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s: %d artifacts, golden has %d", file, len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s: artifact changed\n  got  %s\n  want %s%s", file, gotLines[i], wantLines[i],
				summaryDelta(gotLines[i], wantLines[i]))
		}
	}
}

// checkVerbatim compares a small artifact with testdata/<name>, or
// rewrites that file under -update.
func checkVerbatim(t *testing.T, a artifact) {
	t.Helper()
	path := filepath.Join("testdata", a.name)
	if *update {
		if err := os.WriteFile(path, a.data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/conformance -update to record)", err)
	}
	if !bytes.Equal(a.data, want) {
		t.Errorf("%s changed (%d bytes, golden %d)%s", a.name, len(a.data), len(want), differingLines(a.data, want))
	}
}

// maxDiffLines bounds how many differing lines differingLines quotes.
const maxDiffLines = 3

// differingLines quotes the first lines where got and want differ, each with
// its line number; a side that has ended reads "(end)".
func differingLines(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	line := func(s []string, i int) string {
		if i < len(s) {
			return strconv.Quote(s[i])
		}
		return "(end)"
	}
	var b strings.Builder
	for i, n := 0, 0; i < max(len(g), len(w)) && n < maxDiffLines; i++ {
		if i < len(g) && i < len(w) && g[i] == w[i] {
			continue
		}
		fmt.Fprintf(&b, "\n  line %d\n    got  %s\n    want %s", i+1, line(g, i), line(w, i))
		n++
	}
	return b.String()
}

// summaryDelta lists the summary fields of two golden lines whose
// values differ, one "key want → got" line each.
func summaryDelta(got, want string) string {
	fields := func(line string) map[string]string {
		m := map[string]string{}
		for _, f := range strings.Fields(line) {
			if k, v, ok := strings.Cut(f, "="); ok {
				m[k] = v
			}
		}
		return m
	}
	g, w := fields(got), fields(want)
	var keys []string
	for k := range g {
		keys = append(keys, k)
	}
	for k := range w {
		if _, ok := g[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		if g[k] != w[k] {
			fmt.Fprintf(&b, "\n    %s %s → %s", k, or0(w[k]), or0(g[k]))
		}
	}
	return b.String()
}

func or0(v string) string {
	if v == "" {
		return "0"
	}
	return v
}

// readCorpus decodes a whole corpus.
func readCorpus(t *testing.T, data []byte, f corpus.Format) []*har.Page {
	t.Helper()
	pages, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(data), f))
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

// corpusSummary counts a corpus's pages and HAR entries.
func corpusSummary(pages []*har.Page) string {
	entries := 0
	for _, p := range pages {
		entries += len(p.Entries)
	}
	return fmt.Sprintf("pages=%d entries=%d", len(pages), entries)
}

// traceSummary counts a trace's events, in total and by kind (sorted).
// It reads the kind straight from each line, which obs writes third.
func traceSummary(t *testing.T, data []byte) string {
	t.Helper()
	byKind := map[string]int{}
	events := 0
	for len(data) > 0 {
		line, rest, _ := bytes.Cut(data, []byte("\n"))
		data = rest
		_, after, ok := bytes.Cut(line, []byte(`"kind":"`))
		kind, _, closed := bytes.Cut(after, []byte(`"`))
		if !ok || !closed {
			t.Fatalf("trace line %d has no kind: %q", events+1, line)
		}
		byKind[string(kind)]++
		events++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d", events)
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, byKind[k])
	}
	return b.String()
}

// TestGoldenReplayArtifacts pins the four artifacts of the seeded
// crawl→report pipeline (the report text includes ProtoSweepTable) and
// the warm/cold savings table of the same corpus under each protocol.
func TestGoldenReplayArtifacts(t *testing.T) {
	a, err := runOnce(400, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	pages := readCorpus(t, a.corpus, corpus.FormatNDJSON)
	arts := []artifact{
		{"corpus.ndjson", a.corpus, corpusSummary(pages)},
		{"corpus.columnar", a.columnar, corpusSummary(readCorpus(t, a.columnar, corpus.FormatColumnar))},
		{"trace.ndjson", a.trace, traceSummary(t, a.trace)},
		{"report.txt", a.report, ""},
	}
	c := report.NewCorpusWorkers(&webgen.Dataset{Pages: pages}, 4)
	for _, proto := range core.Protocols {
		costs := c.WarmColdProto(3, cache.Options{}, proto)
		arts = append(arts, artifact{"savings." + proto.String() + ".txt", []byte(report.SavingsTable(costs, proto.String())), ""})
	}
	checkGolden(t, "replay_sites400_seed1.golden", arts)
}

// TestGoldenCLIOutputs pins what the built cdnsim and loadgen binaries
// print: the §5 deployment text under a zero plan and under a fault
// plan (each with its per-visit trace), the deployment protocol sweep,
// and the open-loop NDJSON summary.
func TestGoldenCLIOutputs(t *testing.T) {
	dir := t.TempDir()
	cdnsim, loadgen := clitest.Build(t, "cmd/cdnsim"), clitest.Build(t, "cmd/loadgen")

	deploy := []string{"-sample", "800", "-phase", "all", "-days", "12"}
	faulted := append(append([]string{}, deploy...), "-faults", "reset=0.05,goaway=0.02,logrestart=0.01", "-retries", "1")
	zeroTrace, faultedTrace := filepath.Join(dir, "zero.trace"), filepath.Join(dir, "faulted.trace")
	lgOut := filepath.Join(dir, "loadgen.ndjson")
	clitest.Run(t, loadgen, "-users", "2000", "-out", lgOut)
	zeroText := clitest.Run(t, cdnsim, append(deploy, "-trace", zeroTrace)...)
	faultedText := clitest.Run(t, cdnsim, append(faulted, "-trace", faultedTrace)...)
	zeroEvents, faultedEvents := clitest.ReadFile(t, zeroTrace), clitest.ReadFile(t, faultedTrace)
	checkGolden(t, "cli.golden", []artifact{
		{"cdnsim.zero-plan.txt", zeroText, ""},
		{"cdnsim.zero-plan.trace.ndjson", zeroEvents, traceSummary(t, zeroEvents)},
		{"cdnsim.faulted.txt", faultedText, ""},
		{"cdnsim.faulted.trace.ndjson", faultedEvents, traceSummary(t, faultedEvents)},
		{"cdnsim.proto-sweep.txt", clitest.Run(t, cdnsim, "-sample", "800", "-proto-sweep", "-revisits", "3"), ""},
		{"loadgen.users2000.ndjson", clitest.ReadFile(t, lgOut), ""},
	})
}
