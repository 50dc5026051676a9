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
func (s *Store) Count(name string, n int64) { s.Store(name, s.counts[name]+n) }

// Store is called only from this package; cmd/app calls an
// atomic.Int64's Store, which is another method: it is reported.
func (s *Store) Store(name string, n int64) { s.counts[name] = n }

// Config is what cmd/app fills in.
type Config struct {
	// Name is read below: it passes.
	Name string
	// Label is written by cmd/app and read nowhere: it is reported.
	Label string
}

// Describe reads a Config's Name.
func Describe(c Config) string { return "config " + c.Name }

// Snapshot is encoded by cmd/app with encoding/json.
type Snapshot struct {
	// Total is read only by json.Marshal: it passes.
	Total int64
}

// Unused is named by nothing: it is reported.
const Unused = 3
