package scenario

import (
	"fmt"
	"strings"

	"respectorigin/internal/netsim"
	"respectorigin/internal/webgen"
)

// parseTransport resolves a resolver-transport selector name.
func parseTransport(name string) (DNSTransport, error) {
	switch name {
	case "do53":
		return transportDo53, nil
	case "doh":
		return transportDoH, nil
	}
	return 0, fmt.Errorf("scenario: unknown dns transport %q (do53, doh)", name)
}

// ConfigFromSelectors builds a sweep Config from the CLI's
// comma-separated axis selectors. An empty selector keeps the full
// built-in axis; names resolve against the built-ins in the order
// given.
func ConfigFromSelectors(seed int64, sites, workers int, personas, archetypes, profiles, transports string) (Config, error) {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Sites = sites
	cfg.Workers = workers
	if personas != "" {
		cfg.Personas = nil
		for _, name := range strings.Split(personas, ",") {
			p, err := personaByName(strings.TrimSpace(name))
			if err != nil {
				return cfg, err
			}
			cfg.Personas = append(cfg.Personas, p)
		}
	}
	if archetypes != "" {
		cfg.Archetypes = nil
		for _, name := range strings.Split(archetypes, ",") {
			a := webgen.Archetype(strings.TrimSpace(name))
			if err := a.Validate(); err != nil {
				return cfg, err
			}
			cfg.Archetypes = append(cfg.Archetypes, a)
		}
	}
	if profiles != "" {
		cfg.Profiles = nil
		for _, name := range strings.Split(profiles, ",") {
			p, err := netsim.ProfileByName(strings.TrimSpace(name))
			if err != nil {
				return cfg, err
			}
			cfg.Profiles = append(cfg.Profiles, p)
		}
	}
	if transports != "" {
		cfg.Transports = nil
		for _, name := range strings.Split(transports, ",") {
			t, err := parseTransport(strings.TrimSpace(name))
			if err != nil {
				return cfg, err
			}
			cfg.Transports = append(cfg.Transports, t)
		}
	}
	return cfg, nil
}
