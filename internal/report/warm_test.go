package report

import (
	"strings"
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
	"respectorigin/internal/webgen"
)

// TestWarmColdWorkerInvariance checks the cache-merge determinism
// contract: the corpus warm/cold replay renders byte-identically for 1,
// 4, and 16 workers, because per-page cache sequences are independent
// and ledger addition is associative and commutative.
func TestWarmColdWorkerInvariance(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Sites = 400
	ds, err := webgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := cache.Options{}
	want := SavingsTable(NewCorpusWorkers(ds, 1).WarmColdProto(3, opts, core.ProtoH2), "inv")
	for _, w := range []int{4, 16} {
		got := SavingsTable(NewCorpusWorkers(ds, w).WarmColdProto(3, opts, core.ProtoH2), "inv")
		if got != want {
			t.Errorf("workers=%d table differs from workers=1:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestWarmColdSecondVisitStrictlyCheaper checks the acceptance
// criterion: with the cache on, the second visit issues strictly fewer
// DNS queries, full handshakes, and chain validations than the cold
// load, and the per-cause decomposition is exact (demand identities
// hold, so every avoided unit is attributed with no remainder).
func TestWarmColdSecondVisitStrictlyCheaper(t *testing.T) {
	c := testCorpus(t, 400)
	costs := c.WarmColdProto(2, cache.Options{}, core.ProtoH2)
	if len(costs) != 2 {
		t.Fatalf("visits = %d", len(costs))
	}
	cold, warm := costs[0], costs[1]
	if warm.DNSQueries >= cold.DNSQueries {
		t.Errorf("warm DNS queries %d not below cold %d", warm.DNSQueries, cold.DNSQueries)
	}
	if warm.FullHandshakes >= cold.FullHandshakes {
		t.Errorf("warm handshakes %d not below cold %d", warm.FullHandshakes, cold.FullHandshakes)
	}
	if warm.Validations >= cold.Validations {
		t.Errorf("warm validations %d not below cold %d", warm.Validations, cold.Validations)
	}
	if !cold.Consistent() || !warm.Consistent() {
		t.Errorf("ledger identities violated: cold=%+v warm=%+v", cold, warm)
	}
	// Demand is fixed by the page structure, so per-visit totals must
	// match; this is what makes the savings decomposition exact.
	if cold.LookupsNeeded() != warm.LookupsNeeded() {
		t.Errorf("DNS demand drifted: cold %d, warm %d", cold.LookupsNeeded(), warm.LookupsNeeded())
	}
	if cold.ConnsNeeded != warm.ConnsNeeded {
		t.Errorf("conn demand drifted: cold %d, warm %d", cold.ConnsNeeded, warm.ConnsNeeded)
	}
	table := SavingsTable(costs, "test")
	if strings.Contains(table, "MISMATCH") || strings.Contains(table, "WARNING") {
		t.Errorf("decomposition not exact:\n%s", table)
	}
	if !strings.Contains(table, "[exact]") {
		t.Errorf("missing exactness marker:\n%s", table)
	}
}

// TestWarmColdTicketsDisabledFallsBackToMemo checks that with
// resumption off the warm visit still avoids validations — via the
// chain memo — while full handshakes stay flat aside from coalescing.
func TestWarmColdTicketsDisabledFallsBackToMemo(t *testing.T) {
	c := testCorpus(t, 200)
	costs := c.WarmColdProto(2, cache.Options{TicketLifetimeSeconds: cache.TicketsDisabled}, core.ProtoH2)
	cold, warm := costs[0], costs[1]
	if warm.ResumedTLS != 0 || cold.ResumedTLS != 0 {
		t.Errorf("resumption occurred with tickets disabled: cold %d, warm %d",
			cold.ResumedTLS, warm.ResumedTLS)
	}
	if warm.CertMemoHits <= cold.CertMemoHits {
		t.Errorf("memo hits did not grow: cold %d, warm %d", cold.CertMemoHits, warm.CertMemoHits)
	}
	if warm.Validations >= cold.Validations {
		t.Errorf("warm validations %d not below cold %d", warm.Validations, cold.Validations)
	}
	if table := SavingsTable(costs, "test"); strings.Contains(table, "MISMATCH") {
		t.Errorf("decomposition not exact:\n%s", table)
	}
}
