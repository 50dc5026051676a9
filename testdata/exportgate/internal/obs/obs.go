// Package obs is the gated half of the fixture: each exported name
// says what the root gates must report about it.
package obs

// Recorder is counted into; cmd/app selects its Count method.
type Recorder interface {
	Count(name string, n int64)
}

// Store keeps counts.
type Store struct {
	counts map[string]int64
}

// NewStore returns an empty Store.
func NewStore() *Store { return &Store{counts: map[string]int64{}} }

// Count is reached only through Recorder: it passes.
func (s *Store) Count(name string, n int64) { s.Store(name, add(s.counts[name], n)) }

// add is unexported and Count calls it: it passes.
func add(a, b int64) int64 { return a + b }

// depth is unexported and only calls itself: it is reported.
func depth(n int) int {
	if n == 0 {
		return 0
	}
	return 1 + depth(n-1)
}

// Store is called only from this package; cmd/app calls an
// atomic.Int64's Store, which is another method: it is reported.
func (s *Store) Store(name string, n int64) { s.counts[name] = n }

// Meta is what cmd/app fills in.
type Meta struct {
	// Name is read below: it passes.
	Name string
	// Label is written by cmd/app and read nowhere: it is reported.
	Label string
}

// Describe reads a Meta's Name.
func Describe(m Meta) string { return "meta " + m.Name }

// Options configures Run; each field is read there, so only the option
// rule speaks about them.
type Options struct {
	// Depth is 2 wherever an Options is built: it is reported.
	Depth int
	// Workers is bound to a flag through &opts.Workers: it passes.
	Workers int
	// Rate is set from a parsed argument: it passes.
	Rate float64
	// Retries is 3 in DefaultOptions, and cmd/app's literal omits it
	// (0): it passes.
	Retries int
}

// DefaultOptions is the configuration cmd/app starts from.
func DefaultOptions() Options { return Options{Depth: 2, Retries: 3} }

// Run reads every field of o.
func Run(o Options) float64 { return float64(o.Depth+o.Workers+o.Retries) * o.Rate }

// Snapshot is encoded by cmd/app with encoding/json.
type Snapshot struct {
	// Total is read only by json.Marshal: it passes.
	Total int64
}

// Unused is named by nothing: it is reported.
const Unused = 3
