package cache

import (
	"math/rand"
	"testing"
)

// scanStore is the linear-scan store the indexed coverStore replaced,
// kept as its differential oracle: every redeem walks all grants,
// drops the expired ones and reports whether any that is left covers
// the host.
type scanStore struct {
	lifetimeMs int64
	grants     []scanGrant
}

type scanGrant struct {
	sans      []string
	expiresMs int64
	proto     int
}

func (s *scanStore) store(sans []string, proto int, nowMs int64) {
	if len(sans) == 0 {
		return
	}
	s.grants = append(s.grants, scanGrant{sans, nowMs + s.lifetimeMs, proto})
}

func (s *scanStore) redeem(host string, proto int, nowMs int64) bool {
	kept := s.grants[:0]
	hit := false
	for _, g := range s.grants {
		if nowMs >= g.expiresMs {
			continue
		}
		hit = hit || g.proto == proto && sansCover(g.sans, host)
		kept = append(kept, g)
	}
	s.grants = kept
	return hit
}

func (s *scanStore) reset() {
	*s = scanStore{lifetimeMs: s.lifetimeMs}
}

// sansCover reports whether a certificate SAN list covers host,
// honoring single-label wildcards.
func sansCover(sans []string, host string) bool {
	for _, san := range sans {
		if san == host {
			return true
		}
		if len(san) > 2 && san[0] == '*' && san[1] == '.' {
			suffix := san[1:] // ".example.com"
			if len(host) > len(suffix) && host[len(host)-len(suffix):] == suffix {
				label := host[:len(host)-len(suffix)]
				dotted := false
				for i := 0; i < len(label); i++ {
					dotted = dotted || label[i] == '.'
				}
				if !dotted {
					return true
				}
			}
		}
	}
	return false
}

// The schedule vocabulary: certificates with exact, wildcard,
// overlapping, duplicated and degenerate SANs, and hosts that hit each
// matching rule and each of its edges (multi-label prefix, empty
// label, the bare suffix, a literal wildcard name).
var (
	scheduleCerts = [][]string{
		{"a.example"},
		{"a.example", "b.example"},
		{"*.example"},
		{"*.example", "a.example"},
		{"b.example", "*.b.example"},
		{"c.other", "*.example"},
		{"x.b.example"},
		{"a.example", "a.example"},
		{"*.", "a."},
		{"*.other", "*.b.example", "example"},
	}
	scheduleHosts = []string{
		"a.example", "b.example", "c.example", "x.b.example", "y.x.b.example",
		"c.other", "example", ".example", "*.example", "*.b.example", "a.", "nowhere",
	}
	// Steps that sum to the lifetimes (whole seconds), so grants die
	// exactly at, one before and one after a redeem's nowMs.
	scheduleAdvances = []int64{1, 1, 7, 499, 500, 999, 1000, 1001, 1999, 2000}
)

// runSchedule drives a Cache and two oracles (tickets, tokens) through
// the schedule encoded in data and fails on the first observable
// difference. data[0] bit 1 selects the ticket lifetime: 1 s, under
// which the ticket store stays within scanWindow, or 60 s, under which
// it outgrows it and most tickets are indexed; tokens live their day,
// so the token store outgrows the window on every long schedule. Each following byte pair is one step: the first
// byte picks the operation (3 in 8 store, 4 in 8 redeem, 1 in 8 advance
// the clock or, for 6 of its 256 operands, Reset the cache and the
// oracles), the second its operand and wire protocol.
func runSchedule(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	life := 1 // seconds
	if data[0]&2 != 0 {
		life = 60
	}
	c := New(Options{TicketLifetimeSeconds: life})
	tickets := &scanStore{lifetimeMs: int64(life) * 1000}
	tokens := &scanStore{lifetimeMs: defaultTokenLifetimeSeconds * 1000}
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, int(data[i+1])
		now := c.clock.nowMs()
		switch {
		case op < 3:
			sans := scheduleCerts[arg%len(scheduleCerts)]
			proto := protoWireH1 + arg/len(scheduleCerts)%3
			c.StoreTicketProto(sans, proto)
			c.tokens.s.store(sans, proto, now)
			tickets.store(sans, proto, now)
			tokens.store(sans, proto, now)
		case op < 7:
			host := scheduleHosts[arg%len(scheduleHosts)]
			proto := protoWireH1 + arg/len(scheduleHosts)%3
			if got, want := c.RedeemTicketProto(host, proto), tickets.redeem(host, proto, now); got != want {
				t.Fatalf("step %d at %d ms: ticket redeem(%q, proto %d) = %v, oracle %v", i/2, now, host, proto, got, want)
			}
			if got, want := c.tokens.s.redeem(host, proto, now), tokens.redeem(host, proto, now); got != want {
				t.Fatalf("step %d at %d ms: token redeem(%q, proto %d) = %v, oracle %v", i/2, now, host, proto, got, want)
			}
		case arg >= 250:
			c.Reset()
			tickets.reset()
			tokens.reset()
		default:
			c.Clock().AdvanceMs(scheduleAdvances[arg%len(scheduleAdvances)])
		}
		if got, want := c.tickets.s.len(), len(tickets.grants); got != want {
			t.Fatalf("step %d: %d live tickets, oracle %d", i/2, got, want)
		}
		if got, want := c.tokens.s.len(), len(tokens.grants); got != want {
			t.Fatalf("step %d: %d live tokens, oracle %d", i/2, got, want)
		}
	}
}

func randomSchedule(rng *rand.Rand, steps int) []byte {
	data := make([]byte, 1+2*steps)
	rng.Read(data)
	return data
}

// The indexed store is observably the linear scan: same hit sequence
// and same Len after every step, on seeded random schedules of both
// ticket lifetimes.
func TestCoverageStoreMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 400; n++ {
		runSchedule(t, randomSchedule(rng, 300))
	}
	// Long schedules grow and drain the queues many times over.
	for _, mode := range []byte{0, 2} {
		data := randomSchedule(rng, 20_000)
		data[0] = mode
		runSchedule(t, data)
	}
}

func FuzzCoverageStore(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 8; n++ {
		f.Add(randomSchedule(rng, 64))
	}
	f.Fuzz(runSchedule)
}

// Once a store has held its largest grant population, issuing,
// redeeming and expiring grants allocates nothing: the queue slides
// back instead of growing and index nodes of dropped ids are recycled.
func TestCoverageStoreSteadyStateAllocs(t *testing.T) {
	c := New(Options{TicketLifetimeSeconds: 60})
	rounds := func() {
		for i := 0; i < 20_000; i++ {
			c.StoreTicketProto(scheduleCerts[i%len(scheduleCerts)], ProtoWireH2)
			c.RedeemTicketProto(scheduleHosts[i%len(scheduleHosts)], ProtoWireH2)
			if i%20 == 0 {
				c.Clock().AdvanceMs(1000) // ~1 200 grants queued, far past scanWindow
			}
		}
	}
	rounds() // until the queue's and the node arena's capacities settle
	if allocs := testing.AllocsPerRun(1, rounds); allocs != 0 {
		t.Fatalf("%.0f allocations in steady state, want 0", allocs)
	}
}

// len reports the live grant count (expired grants linger until the
// next redeem).
func (s *coverStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.grants) - s.head
}
