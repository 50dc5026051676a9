package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/webgen"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current outputs")

// renderAll is every rendering of the analysis corpus, in a fixed order.
func renderAll(c *Corpus) string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	_, t1 := c.Table1(5)
	add(t1)
	_, t2 := c.Table2(10)
	add(t2)
	_, _, t3 := c.Table3()
	add(t3)
	_, t4 := c.Table4(10)
	add(t4)
	_, t5 := c.Table5(10)
	add(t5)
	_, t6 := c.Table6(3, 3)
	add(t6)
	_, t7 := c.Table7(10)
	add(t7)
	_, t8 := c.Table8(10)
	add(t8)
	_, t9 := c.Table9(5, 5)
	add(t9)
	_, _, f1 := c.Figure1()
	add(f1)
	add(c.Figure2(60))
	_, f3 := c.Figure3()
	add(f3)
	_, _, f4 := c.Figure4()
	add(f4)
	_, f5 := c.Figure5()
	add(f5)
	_, f9 := c.Figure9Model(13335)
	add(f9)
	_, hl := c.Headline()
	add(hl)
	_, pol := c.PolicyComparison()
	add(pol)
	_, priv := c.PrivacyReport()
	add(priv)
	return strings.Join(parts, "\n")
}

// TestGoldenReportText pins the text of every table and figure of the
// crawl → report flow (generate, columnar encode, decode, fold) at sites
// 400, seed 1. The parallel-vs-sequential tests only compare one build
// with itself; this holds the bytes, at workers 1 and 4.
func TestGoldenReportText(t *testing.T) {
	path := filepath.Join("testdata", "report_sites400_seed1.golden")
	for _, workers := range []int{1, 4} {
		cfg := webgen.DefaultConfig()
		cfg.Sites = 400
		cfg.Seed = 1
		cfg.Workers = workers
		var col bytes.Buffer
		cw := corpus.NewWriter(&col, corpus.FormatColumnar)
		res, err := webgen.GenerateStream(cfg, func(p *har.Page) error { return cw.Write(p) })
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		c, err := NewCorpusFromReader(corpus.NewReader(bytes.NewReader(col.Bytes()), corpus.FormatColumnar), res.Failures, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := renderAll(c)
		if *update && workers == 1 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test ./internal/report -run TestGoldenReportText -update to record)", err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("workers=%d: report text differs from %s at line %d:\n  got  %q\n  want %q", workers, path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("workers=%d: report text differs from %s in length: %d lines, golden has %d", workers, path, len(gl), len(wl))
		}
	}
}
