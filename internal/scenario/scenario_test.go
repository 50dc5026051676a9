package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"respectorigin/internal/corpus"
	"respectorigin/internal/har"
	"respectorigin/internal/netsim"
	"respectorigin/internal/webgen"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

func smallConfig(sites, workers int) Config {
	cfg := DefaultConfig()
	cfg.Sites = sites
	cfg.Workers = workers
	return cfg
}

// renderAll is the full byte surface of a sweep: the table and the
// NDJSON cells.
func renderAll(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(res.Table())
	if err := res.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The engine's core guarantee: the full matrix output is byte-identical
// at any worker count.
func TestMatrixWorkerInvariant(t *testing.T) {
	seq := renderAll(t, mustRun(t, smallConfig(30, 1)))
	for _, w := range []int{2, 4, 16} {
		if got := renderAll(t, mustRun(t, smallConfig(30, w))); !bytes.Equal(got, seq) {
			t.Fatalf("Workers=%d: matrix output differs from sequential", w)
		}
	}
}

// A replayer carries nothing from one replay into the next: one reused
// replayer, walking every (archetype × persona) group in reverse, yields
// the totals a fresh replayer yields for each group.
func TestReplayerReuseMatchesFresh(t *testing.T) {
	cfg := smallConfig(30, 1)
	var corpora [][]*har.Page
	for _, a := range cfg.Archetypes {
		pages, err := archetypeCorpus(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		corpora = append(corpora, pages)
	}
	reused := newReplayer()
	for ai := len(corpora) - 1; ai >= 0; ai-- {
		for pi := len(cfg.Personas) - 1; pi >= 0; pi-- {
			persona := cfg.Personas[pi]
			got := reused.replay(corpora[ai], persona)
			if want := newReplayer().replay(corpora[ai], persona); got != want {
				t.Errorf("%s on %s: reused replayer\n got %+v\nwant %+v", persona.Name, cfg.Archetypes[ai], got, want)
			}
		}
	}
}

// Run joins every goroutine it starts, its generators and replayers
// alike, on success and on an unknown archetype's error.
func TestRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	mustRun(t, smallConfig(20, 4))
	if _, err := archetypeCorpus(smallConfig(20, 4), "nope"); err == nil {
		t.Error("unknown archetype produced a corpus")
	}
	// An exiting goroutine is counted until it is fully gone: poll.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// Replays read the generated pages, not a decode of their columnar
// encoding, and nothing may tell the two apart: decoding the columnar
// encoding of an archetype's corpus gives back pages deeply equal to the
// generated ones, and their NDJSON is the generated pages' NDJSON byte
// for byte.
func TestArchetypeCorpusMatchesColumnarRoundTrip(t *testing.T) {
	cfg := smallConfig(40, 1)
	encode := func(f corpus.Format, pages []*har.Page) []byte {
		var buf bytes.Buffer
		w := corpus.NewWriter(&buf, f)
		for _, p := range pages {
			if err := w.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, a := range cfg.Archetypes {
		pages, err := archetypeCorpus(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(pages) == 0 {
			t.Fatalf("%s: no pages", a)
		}
		col := encode(corpus.FormatColumnar, pages)
		decoded, err := corpus.ReadAll(corpus.NewReader(bytes.NewReader(col), corpus.FormatColumnar))
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !reflect.DeepEqual(decoded, pages) {
			t.Errorf("%s: the columnar round trip changes the generated pages", a)
		}
		if !bytes.Equal(encode(corpus.FormatNDJSON, decoded), encode(corpus.FormatNDJSON, pages)) {
			t.Errorf("%s: NDJSON of the decoded pages differs from NDJSON of the generated ones", a)
		}
	}
}

// A warm Run's allocation budget, taken after one Run so that the
// process-wide state every Run shares is warm. Measured at Sites 60 and
// Workers 2: 88 KiB and 29–30 objects a cell (58–61 objects while a
// cold DNS cache took an entry and an answer of its own for every name
// it stored, and every Run builds one cold cache a worker; 90–92 while
// the browser discarded the connections it evicted and built a list of
// a host's connections at every capped connect; 167 KiB and 102–104
// objects while each archetype round-tripped through the columnar
// codec, 350 KiB before the codec borrowed its columns from a shared
// store). Both budgets have about 20 % headroom.
func TestRunAllocBudget(t *testing.T) {
	const budgetKiB, budgetObjects = 110, 36
	cfg := smallConfig(60, 2)
	mustRun(t, cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := mustRun(t, cfg)
	runtime.ReadMemStats(&after)
	cells := float64(len(res.Cells))
	perCell := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / cells
	objects := float64(after.Mallocs-before.Mallocs) / cells
	t.Logf("a second Run allocates %.1f KiB and %.1f objects a cell", perCell, objects)
	if perCell > budgetKiB {
		t.Errorf("a second Run allocates %.1f KiB a cell, want ≤ %d", perCell, budgetKiB)
	}
	if objects > budgetObjects {
		t.Errorf("a second Run allocates %.1f objects a cell, want ≤ %d", objects, budgetObjects)
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The default matrix covers the acceptance floor: ≥3 personas, 3
// archetypes, ≥3 network profiles, and both resolver transports.
func TestDefaultMatrixDimensions(t *testing.T) {
	res := mustRun(t, smallConfig(20, 4))
	personas := map[string]bool{}
	archetypes := map[string]bool{}
	profiles := map[string]bool{}
	dns := map[string]bool{}
	for _, c := range res.Cells {
		personas[c.Persona] = true
		archetypes[c.Archetype] = true
		profiles[c.Profile] = true
		dns[c.DNS] = true
	}
	if len(personas) < 3 || len(archetypes) < 3 || len(profiles) < 3 || len(dns) != 2 {
		t.Fatalf("matrix dims: %d personas × %d archetypes × %d profiles × %d transports, want ≥3×≥3×≥3×2",
			len(personas), len(archetypes), len(profiles), len(dns))
	}
	want := len(personas) * len(archetypes) * len(profiles) * len(dns)
	if len(res.Cells) != want {
		t.Fatalf("%d cells, want the full cross-product %d", len(res.Cells), want)
	}
}

// The matrix reproduces the sweep's headline structure: domain sharding
// zeroes out IP-based coalescing while the ORIGIN-frame persona keeps
// coalescing, and the migration universe is the only one that produces
// 421 bounces (on the ORIGIN persona, whose pooled cluster connections
// go stale mid-page).
func TestMatrixReproducesShardingObservation(t *testing.T) {
	res := mustRun(t, smallConfig(40, 4))
	cell := func(persona, archetype string) Cell {
		for _, c := range res.Cells {
			if c.Persona == persona && c.Archetype == archetype && c.Profile == "wired" && c.DNS == "do53" {
				return c
			}
		}
		t.Fatalf("cell %s/%s missing", persona, archetype)
		return Cell{}
	}
	if c := cell("chrome", "sharded"); c.CoalescePct() != 0 {
		t.Errorf("chrome on sharded pages coalesces %.2f%%, want 0 (distinct shard servers defeat IP matching)", c.CoalescePct())
	}
	if c := cell("safari", "sharded"); c.CoalescePct() != 0 {
		t.Errorf("safari on sharded pages coalesces %.2f%%, want 0", c.CoalescePct())
	}
	if c := cell("mobile", "sharded"); c.CoalescePct() <= 0 || c.ViaOrigin == 0 {
		t.Errorf("ORIGIN persona on sharded pages: coalesce %.2f%%, via-origin %d — the frame should recover the shards", c.CoalescePct(), c.ViaOrigin)
	}
	base := cell("chrome", "baseline")
	if base.CoalescePct() <= 0 {
		t.Errorf("chrome on baseline pages coalesces %.2f%%, want > 0 (shared-server shards exist)", base.CoalescePct())
	}
	if c := cell("mobile", "migration"); c.Got421 == 0 || c.Evicted == 0 {
		t.Errorf("migration universe produced no stale-pool pressure: 421=%d evicted=%d", c.Got421, c.Evicted)
	}
	if c := cell("chrome", "baseline"); c.Preconns == 0 {
		t.Errorf("chrome persona opened no speculative sockets")
	}
}

// The resolver transport enters a cell through pricing: the do53 and
// doh cells of one (persona, archetype, profile) are priced from the
// same replay and must differ in SetupMs. That it enters nowhere else
// holds by construction: replay takes no transport.
func TestTransportAffectsOnlyPricing(t *testing.T) {
	res := mustRun(t, smallConfig(30, 4))
	byKey := map[string]Cell{}
	for _, c := range res.Cells {
		byKey[c.Persona+"/"+c.Archetype+"/"+c.Profile+"/"+c.DNS] = c
	}
	for _, c := range res.Cells {
		if c.DNS != "do53" {
			continue
		}
		o, ok := byKey[c.Persona+"/"+c.Archetype+"/"+c.Profile+"/doh"]
		if !ok {
			t.Fatalf("missing doh twin for %+v", c)
		}
		if c.SetupMs == o.SetupMs {
			t.Fatalf("transport did not change pricing: %+v vs %+v", c, o)
		}
	}
}

// Bad axis values are rejected up front.
func TestRunRejectsBadAxes(t *testing.T) {
	cfg := smallConfig(10, 1)
	cfg.Archetypes = []webgen.Archetype{"nope"}
	if _, err := Run(cfg); err == nil {
		t.Error("unknown archetype accepted")
	}
	cfg = smallConfig(10, 1)
	bad := netsim.DefaultParams()
	bad.LossRate = 1.5
	cfg.Profiles = []netsim.Profile{{Name: "bad", Params: bad}}
	if _, err := Run(cfg); err == nil {
		t.Error("invalid profile accepted")
	}
	cfg = smallConfig(0, 1)
	if _, err := Run(cfg); err == nil {
		t.Error("zero sites accepted")
	}
}

// The seed-1 matrix table is pinned byte for byte. Regenerate with
//
//	go test ./internal/scenario -run TestMatrixGolden -update-golden
func TestMatrixGolden(t *testing.T) {
	cfg := Config{
		Seed:       1,
		Sites:      25,
		Workers:    4,
		Personas:   defaultPersonas(),
		Archetypes: webgen.Archetypes(),
		Profiles:   netsim.Profiles()[:3], // wired, 4g, 3g
		Transports: []DNSTransport{transportDo53, transportDoH},
	}
	got := []byte(mustRun(t, cfg).Table())
	path := filepath.Join("testdata", "matrix_seed1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("seed-1 matrix table drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
