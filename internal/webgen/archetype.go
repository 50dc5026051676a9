package webgen

import "fmt"

// Archetype selects the page-structure universe a corpus is generated
// in. The baseline universe is the paper's measured marginal
// distributions; the other archetypes deform one structural knob each,
// so a scenario sweep can ask how coalescing behaves when the web is
// built differently — not just how it behaves on the web as measured.
type Archetype string

// Page archetypes.
const (
	// archetypeBaseline is the measured-web universe. The empty string
	// selects it too, so the zero Config keeps its historical output
	// byte for byte.
	archetypeBaseline Archetype = "baseline"

	// ArchetypeSharded is the HTTP/1.1-era domain-sharding universe:
	// every site with a SAN budget fans its first-party content across
	// the full shard set, and every shard lives on its own server
	// addresses. Distinct addresses defeat IP-based coalescing, so only
	// ORIGIN-frame reuse under a covering certificate can merge the
	// shards back — the in-sim form of the Sander et al. observation
	// that sharding is what coalescing has to undo.
	ArchetypeSharded Archetype = "sharded"

	// ArchetypeMigration is the mid-crawl CDN-migration universe: part
	// way through each page load the first-party cluster moves to a new
	// network. Hosts re-resolve to disjoint addresses, pooled
	// connections to the old home go stale, and reuse attempts bounce
	// with 421s — the pool-eviction stress case.
	ArchetypeMigration Archetype = "migration"
)

// Archetypes returns the selectable universes in matrix order.
func Archetypes() []Archetype {
	return []Archetype{archetypeBaseline, ArchetypeSharded, ArchetypeMigration}
}

// Validate rejects unknown archetype names at configuration time.
func (a Archetype) Validate() error {
	switch a {
	case "", archetypeBaseline, ArchetypeSharded, ArchetypeMigration:
		return nil
	}
	return fmt.Errorf("webgen: unknown archetype %q", string(a))
}

func (a Archetype) String() string {
	if a == "" {
		return string(archetypeBaseline)
	}
	return string(a)
}
