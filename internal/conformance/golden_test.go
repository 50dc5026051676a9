package conformance

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/clitest"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/report"
	"respectorigin/internal/webgen"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current outputs")

// artifact is one named output pinned by a golden digest.
type artifact struct {
	name string
	data []byte
}

// checkGolden compares one "name sha256 length" line per artifact with
// testdata/<file>. RunReplay and the CI byte-diff steps only compare
// runs of one build with each other, so a change that shifts every run
// equally passes them; these digests pin the bytes themselves.
func checkGolden(t *testing.T, file string, arts []artifact) {
	t.Helper()
	var got bytes.Buffer
	for _, a := range arts {
		fmt.Fprintf(&got, "%s %x %d\n", a.name, sha256.Sum256(a.data), len(a.data))
	}
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
			t.Errorf("%s: artifact changed\n  got  %s\n  want %s", file, gotLines[i], wantLines[i])
		}
	}
}

// TestGoldenReplayArtifacts pins the four artifacts of the seeded
// crawl→report pipeline (the report text includes ProtoSweepTable) and
// the warm/cold savings table of the same corpus under each protocol.
func TestGoldenReplayArtifacts(t *testing.T) {
	a, err := runOnce(400, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	arts := []artifact{
		{"corpus.ndjson", a.corpus},
		{"corpus.columnar", a.columnar},
		{"trace.ndjson", a.trace},
		{"report.txt", a.report},
	}
	pages, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(a.corpus), corpus.FormatNDJSON))
	if err != nil {
		t.Fatal(err)
	}
	c := report.NewCorpusWorkers(&webgen.Dataset{Pages: pages}, 4)
	for _, proto := range core.Protocols {
		costs := c.WarmColdProto(3, cache.Options{}, proto)
		arts = append(arts, artifact{"savings." + proto.String() + ".txt", []byte(report.SavingsTable(costs, proto.String()))})
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
	checkGolden(t, "cli.golden", []artifact{
		{"cdnsim.zero-plan.txt", clitest.Run(t, cdnsim, append(deploy, "-trace", zeroTrace)...)},
		{"cdnsim.zero-plan.trace.ndjson", clitest.ReadFile(t, zeroTrace)},
		{"cdnsim.faulted.txt", clitest.Run(t, cdnsim, append(faulted, "-trace", faultedTrace)...)},
		{"cdnsim.faulted.trace.ndjson", clitest.ReadFile(t, faultedTrace)},
		{"cdnsim.proto-sweep.txt", clitest.Run(t, cdnsim, "-sample", "800", "-proto-sweep", "-revisits", "3")},
		{"loadgen.users2000.ndjson", clitest.ReadFile(t, lgOut)},
	})
}
