// Command report regenerates the paper's tables and figures from a
// corpus: one it generates, a crawl's output (-in, -manifest) or a HAR
// archive (-har).
//
// A generated or HAR corpus is kept in memory and each table folds it
// when printed. A crawl's output is folded as it is read, in blocks
// that are dropped once folded: memory grows with a few hundred bytes
// of per-page scalars and the distinct names counted, not with the
// pages, so a 500 000-site crawl reports in about 1 GB. The output is
// the same either way, at any -workers.
//
// Usage:
//
//	report -sites 20000                        # everything
//	report -sites 20000 -table 2               # one table
//	report -sites 20000 -figure 3              # one figure
//	report -in dataset.col                     # crawl output, either encoding
//	report -manifest s0.manifest.json,s1.manifest.json   # sharded crawl
//	report -in dataset.col -proto-sweep        # replay tables, also streamed
//	report -in dataset.col -reencode           # re-emit as NDJSON and exit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"respectorigin/internal/asn"
	"respectorigin/internal/cliflags"
	"respectorigin/internal/core"
	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/netsim"
	"respectorigin/internal/obs"
	"respectorigin/internal/report"
	"respectorigin/internal/webgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run() error {
	sites := cliflags.Sites(20000)
	seed := cliflags.Seed(1)
	inFile := flag.String("in", "", "load a corpus file (cmd/crawl output, NDJSON or columnar) instead of generating")
	manifests := flag.String("manifest", "", "comma-separated shard manifests of a multi-process crawl; shards merge in rank order")
	reencode := flag.Bool("reencode", false, "with -in or -manifest: re-emit the corpus as NDJSON on stdout and exit (the cross-format gate)")
	harFile := flag.String("har", "", "load a standard HAR 1.2 archive (WebPageTest/DevTools) instead of generating")
	asnFile := flag.String("asn", "", "IP-to-ASN prefix file ('prefix asn org' lines) for -har imports")
	table := flag.Int("table", 0, "print only this table (1-9)")
	figure := flag.Int("figure", 0, "print only this figure (1-5, 9)")
	cdnASN := flag.Uint("cdn-asn", 13335, "deployment CDN ASN for Figure 9")
	privacyOnly := flag.Bool("privacy", false, "print only the §6.2 privacy-exposure comparison")
	policiesOnly := flag.Bool("policies", false, "print only the §2.3 policy cross-validation")
	schedOnly := flag.Bool("scheduling", false, "print only the §6.1 delivery-ordering comparison")
	workers := cliflags.Workers(0)
	funnelFile := flag.String("funnel", "", "print the coalescing funnel of this NDJSON trace (crawl/cdnsim -trace output) and exit")
	warm := cliflags.RegisterWarmReplay(2)
	flag.Parse()
	warm.Resolve("report")

	if *funnelFile != "" {
		f, err := os.Open(*funnelFile)
		if err != nil {
			return err
		}
		evs, err := obs.ReadNDJSON(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Print(report.FunnelFromEvents(evs).TableString())
		return nil
	}

	if *reencode {
		r, err := openCorpus(*inFile, *manifests)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(os.Stdout, 1<<20)
		w := corpus.NewWriter(bw, corpus.FormatNDJSON)
		_, err = corpus.Copy(w, r)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		return err
	}

	// -cache and -proto-sweep print one replay table and nothing else.
	var protos []core.Protocol
	switch {
	case warm.ProtoSweep:
		protos = core.Protocols
	case warm.Cache:
		protos = []core.Protocol{warm.Proto}
	}
	var c *report.Corpus
	var sweep []report.ProtoCosts
	pages := 0
	switch {
	case *harFile != "":
		ds, err := importHAR(*harFile, *asnFile)
		if err != nil {
			return err
		}
		c = report.NewCorpusWorkers(ds, *workers)
	case *inFile != "" || *manifests != "":
		// A corpus file is folded as it streams: nothing keeps its pages.
		r, err := openCorpus(*inFile, *manifests)
		if err != nil {
			return err
		}
		if len(protos) > 0 {
			sweep, pages, err = report.ReplayStream(r, *workers, warm.Revisits, warm.Opts, protos...)
		} else {
			c, err = report.NewCorpusStream(r, 0, *workers, uint32(*cdnASN))
		}
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	default:
		cfg := webgen.DefaultConfig()
		cfg.Sites = *sites
		cfg.Seed = *seed
		cfg.Workers = *workers
		ds, err := webgen.Generate(cfg)
		if err != nil {
			return err
		}
		c = report.NewCorpusWorkers(ds, *workers)
	}
	if c != nil {
		pages = c.Pages()
	}
	if pages == 0 {
		return errors.New("corpus has no pages")
	}

	if len(protos) > 0 {
		if c != nil {
			sweep = c.Replay(warm.Revisits, warm.Opts, protos...)
		}
		if warm.ProtoSweep {
			fmt.Print(report.ProtoSweepTable(sweep, netsim.DefaultParams(), "corpus"))
		} else {
			fmt.Print(report.SavingsTable(sweep[0].Visits, warm.Label("corpus")))
		}
		return nil
	}

	tables := map[int]func() string{
		1: func() string { _, s := c.Table1(5); return s },
		2: func() string { _, s := c.Table2(10); return s },
		3: func() string { _, _, s := c.Table3(); return s },
		4: func() string { _, s := c.Table4(10); return s },
		5: func() string { _, s := c.Table5(12); return s },
		6: func() string { _, s := c.Table6(3, 4); return s },
		7: func() string { _, s := c.Table7(10); return s },
		8: func() string { _, s := c.Table8(10); return s },
		9: func() string { _, s := c.Table9(3, 5); return s },
	}
	figures := map[int]func() string{
		1: func() string { _, _, s := c.Figure1(); return s },
		2: func() string { return c.Figure2(72) },
		3: func() string { _, s := c.Figure3(); return s },
		4: func() string { _, _, s := c.Figure4(); return s },
		5: func() string { _, s := c.Figure5(); return s },
		9: func() string { _, s := c.Figure9Model(uint32(*cdnASN)); return s },
	}

	switch {
	case *policiesOnly:
		_, txt := c.PolicyComparison()
		fmt.Println(txt)
	case *privacyOnly:
		_, txt := c.PrivacyReport()
		fmt.Println(txt)
	case *schedOnly:
		_, txt := c.SchedulingReport()
		fmt.Println(txt)
	case *table != 0:
		f, ok := tables[*table]
		if !ok {
			return fmt.Errorf("no table %d", *table)
		}
		fmt.Println(f())
	case *figure != 0:
		f, ok := figures[*figure]
		if !ok {
			return fmt.Errorf("no figure %d (deployment figures live in cdnsim)", *figure)
		}
		fmt.Println(f())
	default:
		for i := 1; i <= 9; i++ {
			fmt.Println(tables[i]())
		}
		for _, i := range []int{1, 2, 3, 4, 5, 9} {
			fmt.Println(figures[i]())
		}
		_, h := c.Headline()
		fmt.Println(h)
		_, ptxt := c.PrivacyReport()
		fmt.Println(ptxt)
		_, stxt := c.SchedulingReport()
		fmt.Println(stxt)
		_, pol := c.PolicyComparison()
		fmt.Println(pol)
	}
	return nil
}

// importHAR loads a HAR 1.2 archive as a corpus whose ASes — each
// entry's number and every name — come from the prefix file. Without
// one every address lands in AS 0, which has no name.
func importHAR(harFile, asnFile string) (*webgen.Dataset, error) {
	db := asn.NewDB()
	if asnFile != "" {
		f, err := os.Open(asnFile)
		if err != nil {
			return nil, err
		}
		_, err = db.Load(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	f, err := os.Open(harFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pages, err := har.ImportHAR(f, har.ImportOptions{LookupASN: db.LookupASN})
	if err != nil {
		return nil, err
	}
	return &webgen.Dataset{Pages: pages, ASDB: db}, nil
}

// openCorpus resolves the two corpus-input flags: -manifest chains
// shard files (verifying checksums as they stream), -in opens a single
// file sniffing its encoding. Exactly one may be set.
func openCorpus(inFile, manifests string) (corpus.Reader, error) {
	switch {
	case inFile != "" && manifests != "":
		return nil, fmt.Errorf("-in and -manifest are mutually exclusive")
	case manifests != "":
		return corpus.OpenManifest(strings.Split(manifests, ",")...)
	case inFile != "":
		return corpus.Open(inFile)
	}
	return nil, fmt.Errorf("-reencode needs -in or -manifest")
}
