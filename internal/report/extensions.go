package report

import (
	"fmt"
	"strings"

	"respectorigin/internal/har"
	"respectorigin/internal/privacy"
	"respectorigin/internal/sched"
)

// PrivacyReport runs the §6.2 privacy-exposure comparison over the
// corpus: baseline vs coalescing vs DoH/ECH vs both.
func (c *Corpus) PrivacyReport() ([]privacy.CorpusExposure, string) {
	rows := get[*privacyAcc](c, partPrivacy).t.Exposures()
	return rows, privacy.Report(rows)
}

// privacyAcc is the §6.2 accumulator over the standard scenarios.
type privacyAcc struct{ t *privacy.Tally }

func newPrivacyAcc() *privacyAcc { return &privacyAcc{privacy.NewTally(privacy.StandardScenarios())} }

func (a *privacyAcc) add(s *scratch, p *har.Page) { a.t.Add(p, s.timeline(p)) }

func (a *privacyAcc) merge(next accumulator) { a.t.Merge(next.(*privacyAcc).t) }

// schedConnections is the parallel side of the §6.1 comparison.
const schedConnections = 6

// SchedulingReport runs the §6.1 delivery-ordering comparison on a
// representative page workload derived from the corpus: the resources
// of the first page with ≥ 12 entries, prioritized by content type.
func (c *Corpus) SchedulingReport() (sched.Comparison, string) {
	var resources []sched.Resource
	if p := get[*sampleAcc](c, partSample).sched; p != nil {
		for i := range p.Entries[:min(len(p.Entries), 24)] {
			e := &p.Entries[i]
			resources = append(resources, sched.Resource{
				ID:       uint32(2*i + 1),
				Priority: priorityForMime(e.MimeType),
				Bytes:    float64(e.BodySize),
			})
		}
	}
	cmp := sched.Compare(resources, schedConnections)
	var sb strings.Builder
	sb.WriteString(cmp.Report())
	fmt.Fprintf(&sb, "  (workload: %d resources over %d parallel connections vs 1 coalesced)\n",
		len(resources), schedConnections)
	return cmp, sb.String()
}

// priorityForMime maps content types to render priorities (0 = most
// critical).
func priorityForMime(mime string) int {
	switch {
	case mime == "text/html":
		return 0
	case mime == "text/css":
		return 1
	case strings.Contains(mime, "javascript"):
		return 2
	case strings.HasPrefix(mime, "font/"):
		return 3
	default:
		return 4
	}
}
