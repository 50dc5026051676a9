package report

import (
	"fmt"
	"strings"

	"respectorigin/internal/core"
	"respectorigin/internal/measure"
)

// SavingsTable renders a warm/cold visit sequence: per-visit measured
// costs, then the warm-visit savings against the cold load decomposed
// into the four causes — coalescing reuse, DNS cache, TLS resumption,
// and the cert memo. The decomposition is computed from per-cause
// counters attributed at avoidance time, and each savings line is
// checked against the measured difference: "exact" means the cause sum
// equals the total reduction with no remainder, "MISMATCH" flags a
// bookkeeping error (and should never appear).
func SavingsTable(costs []core.VisitCosts, label string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Warm vs. cold page loads (%s, %d visit(s)):\n", label, len(costs))
	if len(costs) == 0 {
		return sb.String()
	}
	sb.WriteString("  visit      dns_q  dns_hit  reused  resumed  full_hs  validations  memo_hit\n")
	for v, vc := range costs {
		fmt.Fprintf(&sb, "  %5d   %8d %8d %7d %8d %8d %12d %9d\n",
			v+1, vc.DNSQueries, vc.DNSCacheHits+vc.DNSNegHits, vc.ReusedConns,
			vc.ResumedTLS, vc.FullHandshakes, vc.Validations, vc.CertMemoHits)
	}
	cold := costs[0]
	if !cold.Consistent() {
		sb.WriteString("  WARNING: cold-visit ledger inconsistent\n")
	}
	for v := 1; v < len(costs); v++ {
		warm := costs[v]
		fmt.Fprintf(&sb, "Savings of visit %d vs. cold:\n", v+1)
		check := func(total, sum int) string {
			if total == sum {
				return "exact"
			}
			return fmt.Sprintf("MISMATCH (unattributed %d)", total-sum)
		}
		// DNS: total lookup demand is constant across visits, so the
		// drop in wire queries equals the growth of the three
		// query-avoiding causes.
		dDNS := cold.DNSQueries - warm.DNSQueries
		dHit := warm.DNSCacheHits - cold.DNSCacheHits
		dNeg := warm.DNSNegHits - cold.DNSNegHits
		dSkip := warm.DNSCoalesced - cold.DNSCoalesced
		fmt.Fprintf(&sb, "  DNS queries     -%d (-%.1f%%): dns-cache %+d, neg-cache %+d, coalescing %+d  [%s]\n",
			dDNS, measure.ReductionPct(float64(cold.DNSQueries), float64(warm.DNSQueries)),
			dHit, dNeg, dSkip, check(dDNS, dHit+dNeg+dSkip))
		// Full handshakes: connection demand is constant, so avoided
		// handshakes split between extra reuse and resumption.
		dFull := cold.FullHandshakes - warm.FullHandshakes
		dReuse := warm.ReusedConns - cold.ReusedConns
		dRes := warm.ResumedTLS - cold.ResumedTLS
		fmt.Fprintf(&sb, "  full handshakes -%d (-%.1f%%): coalescing %+d, tls-resumption %+d  [%s]\n",
			dFull, measure.ReductionPct(float64(cold.FullHandshakes), float64(warm.FullHandshakes)),
			dReuse, dRes, check(dFull, dReuse+dRes))
		// Validations: every avoided full handshake also avoids its
		// validation; the memo removes some of the rest.
		dVal := cold.Validations - warm.Validations
		dMemo := warm.CertMemoHits - cold.CertMemoHits
		fmt.Fprintf(&sb, "  validations     -%d (-%.1f%%): coalescing %+d, tls-resumption %+d, cert-memo %+d  [%s]\n",
			dVal, measure.ReductionPct(float64(cold.Validations), float64(warm.Validations)),
			dReuse, dRes, dMemo, check(dVal, dReuse+dRes+dMemo))
		if !warm.Consistent() {
			fmt.Fprintf(&sb, "  WARNING: visit %d ledger inconsistent\n", v+1)
		}
	}
	return sb.String()
}
