// Package scenario is the matrix engine: a deterministic cross-product
// sweep over client personas × page archetypes × network profiles ×
// resolver transports. Each cell reports who coalesces, who shards, and
// what it costs — connections opened, sockets wasted, setup
// milliseconds, coalescing rate.
//
// Only two axes enter the replay: one persona's connection pool replays
// one archetype's corpus, once. The network profile and the resolver
// transport enter a cell through pricing alone — arithmetic over the
// replay's totals — so the sweep runs one replay per (archetype ×
// persona) and prices it once per profile × transport.
//
// Each archetype's corpus is generated once, on its own worker, and the
// replays read the generated pages. Every cell is a pure function of
// (seed, cell coordinates): the corpora and the replays fan out through
// internal/parallel, each replay worker resetting one cache and browser
// rather than building new ones, and the output is byte-identical at
// any worker count.
package scenario

import (
	"fmt"

	"respectorigin/internal/browser"
)

// Persona is a client model: a coalescing policy plus the pool-shape
// knobs real browsers differ on — total and per-host connection caps
// and how many speculative pre-connect sockets are raced at page start.
type Persona struct {
	Name   string
	Policy browser.Policy

	// MaxConns / MaxConnsPerHost bound the connection pool (0 = that
	// dimension unbounded); see browser.Browser.
	MaxConns        int
	MaxConnsPerHost int

	// PreconnectN speculative sockets are opened to the first distinct
	// hostnames of each page before any request runs. Sockets no
	// request ends up riding are the persona's wasted-socket cost.
	PreconnectN int

	// SkipOriginDNS applies the §6.8 recommended client change (only
	// meaningful with PolicyFirefoxOrigin).
	SkipOriginDNS bool
}

// defaultPersonas returns the built-in client personas in matrix order.
func defaultPersonas() []Persona {
	return []Persona{
		// Chrome-like: connected-IP-only coalescing, a big pool with
		// per-host multiplexing at 6, and aggressive pre-connect.
		{Name: "chrome", Policy: browser.PolicyChromium, MaxConns: 256, MaxConnsPerHost: 6, PreconnectN: 4},
		// Safari-like: transitive IP coalescing over the cached answer
		// set, a mid-sized pool, no speculative sockets.
		{Name: "safari", Policy: browser.PolicyFirefox, MaxConns: 128, MaxConnsPerHost: 6},
		// Mobile small-pool: ORIGIN-frame coalescing with the paper's
		// recommended DNS skip, under tight memory-driven caps.
		{Name: "mobile", Policy: browser.PolicyFirefoxOrigin, MaxConns: 10, MaxConnsPerHost: 2, SkipOriginDNS: true},
	}
}

// personaByName resolves a built-in persona.
func personaByName(name string) (Persona, error) {
	for _, p := range defaultPersonas() {
		if p.Name == name {
			return p, nil
		}
	}
	return Persona{}, fmt.Errorf("scenario: unknown persona %q", name)
}
