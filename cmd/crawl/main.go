// Command crawl generates the synthetic web corpus (the stand-in for
// the paper's WebPageTest crawl of the Tranco top-500K) and writes it
// through the unified corpus API as NDJSON or the compact columnar
// encoding.
//
// Generation is sharded across -workers goroutines and pages stream
// out as shards complete, so memory stays bounded by the in-flight
// shard window rather than the corpus size. Output is byte-identical
// for any worker count.
//
// A corpus can also be split across OS processes: -shards N -shard i
// crawls only rank shard i and writes its file plus a single-shard
// manifest (<out>.manifest.json) recording the rank range, page count
// and checksum. cmd/report merges the manifests and analyzes the
// shards as one corpus, byte-identical to a single-process run.
//
// crawl only crawls. The warm/cold replay of a corpus is cmd/report's:
// crawl -out f, then report -in f -cache (or -proto-sweep).
//
// Usage:
//
//	crawl -sites 20000 -seed 1 -workers 8 -out dataset.ndjson
//	crawl -sites 20000 -format columnar -out dataset.col
//	crawl -sites 20000 -shards 2 -shard 0 -out s0.col -format columnar
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"respectorigin/internal/cliflags"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/obs"
	"respectorigin/internal/webgen"
)

func main() {
	sites := cliflags.Sites(20000)
	seed := cliflags.Seed(1)
	out := cliflags.Out("dataset.ndjson", "the corpus")
	workers := cliflags.Workers(0)
	formatName := flag.String("format", "ndjson", "corpus encoding: ndjson | columnar")
	shards := flag.Int("shards", 1, "total shard count of a multi-process crawl")
	shard := flag.Int("shard", -1, "rank shard [0, shards) this process crawls; -1 crawls everything")
	traceOut := flag.String("trace", "", "write per-page-load trace events as NDJSON to this file")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}

	format, err := corpus.ParseFormat(*formatName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(2)
	}
	sharded := *shard >= 0 || *shards != 1
	if sharded {
		switch {
		case *shards < 1:
			fail(fmt.Errorf("-shards must be at least 1"))
		case *shard < 0 || *shard >= *shards:
			fail(fmt.Errorf("-shard %d outside [0, %d); each process crawls exactly one shard", *shard, *shards))
		case *out == "-" || *out == "":
			fail(fmt.Errorf("sharded crawls need a real -out file (the manifest records its checksum)"))
		}
	}

	cfg := webgen.DefaultConfig()
	cfg.Sites = *sites
	cfg.Seed = *seed
	cfg.Workers = *workers
	if sharded {
		cfg.RankLo, cfg.RankHi = corpus.ShardRange(*sites, *shards, *shard)
	}

	// The corpus writer: a checksummed shard file in sharded mode,
	// otherwise a buffered stream to -out. Both paths check every close
	// and flush — a full disk at the final flush must fail the crawl,
	// not truncate the corpus silently.
	var (
		w         corpus.Writer
		sw        *corpus.ShardWriter
		finishOut func() error
	)
	if sharded {
		sw, err = corpus.CreateShard(*out, format)
		if err != nil {
			fail(err)
		}
		w = sw
		finishOut = sw.Close
	} else {
		o, err := cliflags.OpenOutput(*out)
		if err != nil {
			fail(err)
		}
		bw := bufio.NewWriterSize(o, 1<<20)
		fw := corpus.NewWriter(bw, format)
		w = fw
		finishOut = func() error {
			err := fw.Close()
			if ferr := bw.Flush(); err == nil {
				err = ferr
			}
			if cerr := o.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}

	emit := w.Write
	var trace *obs.Trace
	if *traceOut != "" {
		trace = obs.NewTrace()
		emit = func(p *har.Page) error {
			core.EmitPageEvents(trace, p)
			return w.Write(p)
		}
	}
	res, err := webgen.GenerateStream(cfg, emit)
	if err != nil {
		fail(err)
	}
	if err := finishOut(); err != nil {
		fail(err)
	}
	if sharded {
		lo, hi := corpus.ShardRange(*sites, *shards, *shard)
		m := corpus.Manifest{
			Schema:  corpus.ManifestSchema,
			Format:  format,
			Version: format.Version(),
			Seed:    *seed,
			Sites:   *sites,
			Shards:  []corpus.ShardInfo{sw.Info(*shard, lo, hi)},
		}
		mp := *out + ".manifest.json"
		if err := corpus.WriteManifest(mp, m); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "crawl: shard %d/%d ranks [%d,%d) -> %s + %s\n",
			*shard, *shards, lo, hi, *out, mp)
	}
	fmt.Fprintf(os.Stderr, "crawl: %d successful page loads (%d failures) -> %s\n",
		res.Pages, res.Failures, *out)
	if trace != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := trace.WriteNDJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "crawl: %d trace events -> %s\n", trace.Len(), *traceOut)
	}
}
