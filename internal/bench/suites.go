package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/h2"
	"respectorigin/internal/har"
	"respectorigin/internal/hpack"
	"respectorigin/internal/measure"
	"respectorigin/internal/obs"
	"respectorigin/internal/qpack"
	"respectorigin/internal/report"
	"respectorigin/internal/webgen"
)

// --- hpack suite ---

// corpusHeaderStrings mirrors the header values the crawl pipeline
// pushes through HPACK: hostnames, paths, cache directives, UA strings.
var corpusHeaderStrings = []string{
	"www.example.com",
	"no-cache",
	"/static/js/app.bundle.min.js?v=20220413",
	"text/html; charset=utf-8",
	"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36",
	"max-age=31536000, immutable",
	"cdn-7.assets.example-edge.net",
	"gzip, deflate, br",
}

func corpusHeaderFields() []hpack.HeaderField {
	return []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "www.example.com"},
		{Name: ":path", Value: "/static/js/app.bundle.min.js?v=20220413"},
		{Name: "accept-encoding", Value: "gzip, deflate, br"},
		{Name: "user-agent", Value: "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36"},
		{Name: "cache-control", Value: "no-cache"},
	}
}

func hpackSuite() []Benchmark {
	return []Benchmark{
		{Suite: "hpack", Name: "HuffmanDecode", Gated: false, F: func(b *testing.B) {
			var encs [][]byte
			var total int64
			for _, s := range corpusHeaderStrings {
				e := hpack.AppendHuffmanString(nil, s)
				encs = append(encs, e)
				total += int64(len(e))
			}
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, e := range encs {
					if _, err := hpack.HuffmanDecode(e, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{Suite: "hpack", Name: "HuffmanDecodeTree", Gated: false, F: func(b *testing.B) {
			var encs [][]byte
			var total int64
			for _, s := range corpusHeaderStrings {
				e := hpack.AppendHuffmanString(nil, s)
				encs = append(encs, e)
				total += int64(len(e))
			}
			b.SetBytes(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, e := range encs {
					if _, err := hpack.HuffmanDecodeTree(e, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{Suite: "hpack", Name: "DecodeFull", Gated: false, F: func(b *testing.B) {
			blk := hpack.NewEncoder().AppendHeaderBlock(nil, corpusHeaderFields())
			d := hpack.NewDecoder()
			b.SetBytes(int64(len(blk)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.DecodeFull(blk); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Suite: "hpack", Name: "EncodeBlock", Gated: false, F: func(b *testing.B) {
			fields := corpusHeaderFields()
			e := hpack.NewEncoder()
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = e.AppendHeaderBlock(buf[:0], fields)
			}
		}},
	}
}

// --- qpack suite ---

func qpackSuite() []Benchmark {
	return []Benchmark{
		{Suite: "qpack", Name: "EncodeFieldSection", Gated: true, F: func(b *testing.B) {
			fields := corpusHeaderFields()
			var e qpack.Encoder
			var buf []byte
			buf = e.AppendFieldSection(buf, fields)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = e.AppendFieldSection(buf[:0], fields)
			}
		}},
		{Suite: "qpack", Name: "DecodeFieldSection", Gated: false, F: func(b *testing.B) {
			var e qpack.Encoder
			sec := e.AppendFieldSection(nil, corpusHeaderFields())
			var d qpack.Decoder
			b.SetBytes(int64(len(sec)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.DecodeFieldSection(sec); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Suite: "qpack", Name: "RoundTrip", Gated: false, F: func(b *testing.B) {
			fields := corpusHeaderFields()
			var e qpack.Encoder
			var d qpack.Decoder
			sec := e.AppendFieldSection(nil, fields)
			b.SetBytes(int64(len(sec)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sec = e.AppendFieldSection(sec[:0], fields)
				if _, err := d.DecodeFieldSection(sec); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// --- h2 suite ---

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

func encodedDataFrame(size int) []byte {
	var buf bytes.Buffer
	fr := h2.NewFramer(&buf, nil)
	if err := fr.WriteData(1, false, make([]byte, size)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func h2Suite() []Benchmark {
	var out []Benchmark
	for _, size := range []int{64, 16384} {
		size := size
		out = append(out, Benchmark{
			Suite: "h2", Name: fmt.Sprintf("FramerReadFrame/size=%d", size), Gated: true,
			F: func(b *testing.B) {
				enc := encodedDataFrame(size)
				fr := h2.NewFramer(io.Discard, &loopReader{frames: enc})
				fr.SetMaxReadFrameSize(1 << 20)
				b.SetBytes(int64(len(enc)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := fr.ReadFrame(); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	out = append(out, Benchmark{
		Suite: "h2", Name: "FramerWriteData/size=16384", Gated: true,
		F: func(b *testing.B) {
			fr := h2.NewFramer(io.Discard, nil)
			data := make([]byte, 16384)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fr.WriteData(1, false, data); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	out = append(out, Benchmark{
		Suite: "h2", Name: "FramerWriteControl", Gated: true,
		F: func(b *testing.B) {
			fr := h2.NewFramer(io.Discard, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fr.WriteWindowUpdate(1, 4096); err != nil {
					b.Fatal(err)
				}
				if err := fr.WriteSettingsAck(); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	return out
}

// --- obs suite ---

func benchEvent(i int) obs.Event {
	return obs.Event{Rank: i, Seq: i & 7, Kind: obs.KindDNSQuery, Host: "host.example", MS: 1.5}
}

func obsSuite() []Benchmark {
	return []Benchmark{
		{Suite: "obs", Name: "EmitRecorderOff", Gated: true, F: func(b *testing.B) {
			var rec obs.Recorder // nil: recorder off
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec != nil {
					rec.Event(benchEvent(i))
				}
			}
		}},
		{Suite: "obs", Name: "TraceEvent", Gated: false, F: func(b *testing.B) {
			tr := obs.NewTrace()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Event(benchEvent(i))
			}
		}},
		{Suite: "obs", Name: "MetricsEvent", Gated: true, F: func(b *testing.B) {
			m := obs.NewMetrics()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Event(benchEvent(i))
			}
		}},
		{Suite: "obs", Name: "TraceWriteNDJSON", Gated: false, F: func(b *testing.B) {
			tr := obs.NewTrace()
			for i := 0; i < 10000; i++ {
				tr.Event(benchEvent(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.WriteNDJSON(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// --- measure suite ---

func measureSuite() []Benchmark {
	return []Benchmark{
		{Suite: "measure", Name: "Summarize", Gated: false, F: func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			xs := make([]float64, 10000)
			for i := range xs {
				xs[i] = rng.ExpFloat64() * 40
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				measure.Summarize(xs)
			}
		}},
		{Suite: "measure", Name: "CDF", Gated: false, F: func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			xs := make([]float64, 10000)
			for i := range xs {
				xs[i] = rng.ExpFloat64() * 40
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				measure.CDF(xs)
			}
		}},
		{Suite: "measure", Name: "CounterTop", Gated: false, F: func(b *testing.B) {
			c := measure.NewCounter()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 5000; i++ {
				c.Add(fmt.Sprintf("as%d", rng.Intn(400)), 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Top(20)
			}
		}},
	}
}

// --- pipeline suite ---

// pipelineOnce mirrors the cmd/crawl + cmd/report pipeline in memory at
// a fixed seed: generate the corpus streaming into NDJSON while
// recording trace events, read it back, and render the full report.
// It is the same flow the determinism harness replays, sized down so a
// single iteration stays in benchmark territory.
func pipelineOnce(sites int, seed int64, workers int) error {
	cfg := webgen.DefaultConfig()
	cfg.Sites = sites
	cfg.Seed = seed
	cfg.Workers = workers

	var buf bytes.Buffer
	trace := obs.NewTrace()
	sw := corpus.NewWriter(&buf, corpus.FormatNDJSON)
	if _, err := webgen.GenerateStream(cfg, func(p *har.Page) error {
		core.EmitPageEvents(trace, p)
		return sw.Write(p)
	}); err != nil {
		return err
	}
	if err := trace.WriteNDJSON(io.Discard); err != nil {
		return err
	}
	pages, err := corpus.ReadAll(corpus.NewReader(&buf, corpus.FormatNDJSON))
	if err != nil {
		return err
	}
	ds := &webgen.Dataset{Pages: pages, ASDB: webgen.RebuildASDB(pages)}
	c := report.NewCorpusWorkers(ds, workers)
	c.Table1(5)
	c.Table2(10)
	c.Table3()
	c.Figure3()
	c.Headline()
	return nil
}

// pipelineSites keeps one iteration around a hundred milliseconds so
// testing.Benchmark converges in a handful of iterations.
const (
	pipelineSites = 40
	pipelineSeed  = 1
)

func pipelineSuite() []Benchmark {
	var out []Benchmark
	for _, workers := range []int{1, 4, 16} {
		workers := workers
		out = append(out, Benchmark{
			Suite: "pipeline",
			Name:  fmt.Sprintf("CorpusCrawlReport/sites=%d/seed=%d/workers=%d", pipelineSites, pipelineSeed, workers),
			F: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := pipelineOnce(pipelineSites, pipelineSeed, workers); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	return out
}
