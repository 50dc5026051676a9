package conformance

import (
	"bytes"
	"fmt"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/netsim"
	"respectorigin/internal/obs"
	"respectorigin/internal/report"
	"respectorigin/internal/webgen"
)

// ReplayConfig parameterizes a determinism differential run.
type ReplayConfig struct {
	Sites   int   // corpus size per run
	Seed    int64 // generator seed, fixed across all runs
	Workers []int // worker counts to cross-check (e.g. 1, 4, 16)
	Repeats int   // runs per worker count; minimum 1
}

// A Divergence pinpoints the first byte at which a run's artifact
// differed from the baseline run.
type Divergence struct {
	Artifact string // "corpus", "trace", or "report"
	Workers  int    // worker count of the diverging run
	Repeat   int    // repeat index of the diverging run
	Offset   int    // first differing byte offset
	Detail   string // short context around the difference
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s diverged at byte %d (workers=%d repeat=%d): %s",
		d.Artifact, d.Offset, d.Workers, d.Repeat, d.Detail)
}

// artifacts is one run's complete observable output.
type artifacts struct {
	corpus   []byte // crawl NDJSON
	columnar []byte // the same pages in the columnar encoding
	trace    []byte // obs trace NDJSON
	report   []byte // analysis tables and headline
}

// RunReplay replays the seeded crawl once per (worker count, repeat)
// pair and byte-compares every artifact against the first run. The
// crawl pipeline promises output independent of both scheduling and
// worker count; any nonzero result is a determinism bug.
func RunReplay(cfg ReplayConfig) ([]Divergence, error) {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 4, 16}
	}
	if cfg.Repeats < 1 {
		cfg.Repeats = 1
	}
	var base *artifacts
	var divs []Divergence
	for _, w := range cfg.Workers {
		for r := 0; r < cfg.Repeats; r++ {
			got, err := runOnce(cfg.Sites, cfg.Seed, w)
			if err != nil {
				return nil, fmt.Errorf("run workers=%d repeat=%d: %w", w, r, err)
			}
			if base == nil {
				base = got
				continue
			}
			for _, cmp := range []struct {
				name       string
				want, have []byte
			}{
				{"corpus", base.corpus, got.corpus},
				{"columnar", base.columnar, got.columnar},
				{"trace", base.trace, got.trace},
				{"report", base.report, got.report},
			} {
				if off, detail, same := firstDiff(cmp.want, cmp.have); !same {
					divs = append(divs, Divergence{
						Artifact: cmp.name, Workers: w, Repeat: r,
						Offset: off, Detail: detail,
					})
				}
			}
		}
	}
	return divs, nil
}

// runOnce mirrors the cmd/crawl + cmd/report pipeline in memory: stream
// the generated corpus through the corpus API into both encodings while
// recording trace events, cross-check the encodings against each other,
// then re-parse the NDJSON (exactly what the report command would read
// back) and render the analysis.
func runOnce(sites int, seed int64, workers int) (*artifacts, error) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = sites
	cfg.Seed = seed
	cfg.Workers = workers

	var ndjsonBuf, colBuf bytes.Buffer
	trace := obs.NewTrace()
	nw := corpus.NewWriter(&ndjsonBuf, corpus.FormatNDJSON)
	cw := corpus.NewWriter(&colBuf, corpus.FormatColumnar)
	if _, err := webgen.GenerateStream(cfg, func(p *har.Page) error {
		core.EmitPageEvents(trace, p)
		if err := nw.Write(p); err != nil {
			return err
		}
		return cw.Write(p)
	}); err != nil {
		return nil, err
	}
	if err := nw.Close(); err != nil {
		return nil, err
	}
	if err := cw.Close(); err != nil {
		return nil, err
	}
	var traceOut bytes.Buffer
	if err := trace.WriteNDJSON(&traceOut); err != nil {
		return nil, err
	}

	// Cross-format gate: decoding the columnar bytes and re-encoding as
	// NDJSON must reproduce the direct NDJSON byte for byte. A mismatch
	// is a codec bug, not a scheduling divergence, so it fails the run
	// outright rather than producing a Divergence.
	var roundtrip bytes.Buffer
	rw := corpus.NewWriter(&roundtrip, corpus.FormatNDJSON)
	if _, err := corpus.Copy(rw, corpus.NewReader(bytes.NewReader(colBuf.Bytes()), corpus.FormatColumnar)); err != nil {
		return nil, fmt.Errorf("columnar decode: %w", err)
	}
	if err := rw.Close(); err != nil {
		return nil, err
	}
	if off, detail, same := firstDiff(ndjsonBuf.Bytes(), roundtrip.Bytes()); !same {
		return nil, fmt.Errorf("columnar->NDJSON round trip diverged from direct NDJSON at byte %d: %s", off, detail)
	}

	pages, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(ndjsonBuf.Bytes()), corpus.FormatNDJSON))
	if err != nil {
		return nil, err
	}
	c := report.NewCorpusWorkers(&webgen.Dataset{Pages: pages}, workers)
	var rep bytes.Buffer
	_, t1 := c.Table1(5)
	rep.WriteString(t1)
	_, t2 := c.Table2(10)
	rep.WriteString(t2)
	_, _, t3 := c.Table3()
	rep.WriteString(t3)
	_, f3 := c.Figure3()
	rep.WriteString(f3)
	_, hl := c.Headline()
	rep.WriteString(hl)
	// Per-protocol savings decomposition: replays the corpus under h1,
	// h2 and h3, so protocol-versioned warm paths are inside the
	// byte-identity gate too.
	sweep := c.Replay(2, cache.Options{}, core.Protocols...)
	rep.WriteString(report.ProtoSweepTable(sweep, netsim.DefaultParams(), "corpus"))

	return &artifacts{
		corpus:   ndjsonBuf.Bytes(),
		columnar: colBuf.Bytes(),
		trace:    traceOut.Bytes(),
		report:   rep.Bytes(),
	}, nil
}

// firstDiff locates the first differing byte and returns a short
// context window around it from both sides.
func firstDiff(want, have []byte) (off int, detail string, same bool) {
	if bytes.Equal(want, have) {
		return 0, "", true
	}
	n := len(want)
	if len(have) < n {
		n = len(have)
	}
	off = n
	for i := 0; i < n; i++ {
		if want[i] != have[i] {
			off = i
			break
		}
	}
	ctx := func(b []byte) string {
		lo, hi := off-20, off+20
		if lo < 0 {
			lo = 0
		}
		if hi > len(b) {
			hi = len(b)
		}
		return fmt.Sprintf("%q", b[lo:hi])
	}
	if off == n {
		detail = fmt.Sprintf("lengths differ: baseline %d bytes, run %d bytes", len(want), len(have))
	} else {
		detail = fmt.Sprintf("baseline %s vs run %s", ctx(want), ctx(have))
	}
	return off, detail, false
}
