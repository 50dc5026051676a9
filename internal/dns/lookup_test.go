package dns

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// seedAuthority builds the zone the lookup tests query: multi-address
// names with distinct TTLs, alias chains of every depth around the
// chase bound, a dangling alias, a name holding both an alias and
// addresses, and a name with records of another type only.
func seedAuthority() *Authority {
	a := NewAuthority()
	a.AddA("multi.example", ip("192.0.2.1"), ip("192.0.2.2"), ip("192.0.2.3"))
	a.AddAAAA("multi.example", ip("2001:db8::1"), ip("2001:db8::2"))
	a.AddA("single.example", ip("198.51.100.1"))
	a.AddAAAA("v6only.example", ip("2001:db8::6"))
	a.AddCNAME("both.example", "single.example")
	a.AddA("both.example", ip("203.0.113.7"), ip("203.0.113.8"))
	a.AddCNAME("alias.example", "single.example")
	a.AddCNAME("dangling.example", "nowhere.example")
	a.AddCNAME("loop-a.example", "loop-b.example")
	a.AddCNAME("loop-b.example", "loop-a.example")
	for depth := 1; depth <= 10; depth++ {
		for i := 0; i < depth; i++ {
			target := fmt.Sprintf("chain%d-%d.example", depth, i+1)
			if i == depth-1 {
				target = "Multi.Example." // targets are canonicalised too
			}
			a.AddCNAME(fmt.Sprintf("chain%d-%d.example", depth, i), target)
		}
	}
	// Distinct TTLs, so the minimum is not just any record's.
	for key, rrs := range a.records {
		for i := range rrs {
			rrs[i].TTL = uint32(60 + 30*((i+len(key))%5))
		}
	}
	return a
}

// lookupNames are the questions: every seeded name in several
// spellings, plus a name that does not exist.
func lookupNames() []string {
	names := []string{
		"multi.example", "MULTI.Example", "multi.example.", " Multi.EXAMPLE. ",
		"single.example", "v6only.example", "both.example", "alias.example", "dangling.example",
		"loop-a.example", "nowhere.example", "", ".",
	}
	for depth := 1; depth <= 10; depth++ {
		names = append(names, fmt.Sprintf("chain%d-0.example", depth), fmt.Sprintf("CHAIN%d-0.example.", depth))
	}
	return names
}

// referenceResolve is the recursive resolution the Authority ran before
// its iterative walk, kept here as the oracle: it copies the
// matching records, rotates and caps the copy, and prepends each alias
// on the way back up.
func referenceResolve(a *Authority, rotate *int, name string, typ uint16, depth int) ([]RR, bool) {
	if depth > 8 {
		return nil, false
	}
	rrs, ok := a.records[recordKey(name)]
	if !ok {
		return nil, false
	}
	var addrs []RR
	var cname *RR
	for i := range rrs {
		rr := rrs[i]
		switch {
		case rr.Type == typ:
			addrs = append(addrs, rr)
		case rr.Type == TypeCNAME:
			cname = &rr
		}
	}
	if len(addrs) > 0 {
		if a.Rotation && len(addrs) > 1 {
			k := *rotate % len(addrs)
			*rotate++
			addrs = append(append([]RR(nil), addrs[k:]...), addrs[:k]...)
		}
		if a.AnswerLimit > 0 && len(addrs) > a.AnswerLimit {
			addrs = addrs[:a.AnswerLimit]
		}
		return addrs, true
	}
	if cname != nil {
		chain, _ := referenceResolve(a, rotate, cname.Target, typ, depth+1)
		return append([]RR{*cname}, chain...), true
	}
	return nil, true
}

// Handle's answer section is the recursive resolution it replaced, kept
// above as the oracle, over a seeded question sequence under every
// rotation, answer limit and failure-hook setting; the query counter
// and the rotation cursor end where the oracle's do.
func TestHandleMatchesRecursiveResolution(t *testing.T) {
	names := lookupNames()
	types := []uint16{TypeA, TypeAAAA, TypeCNAME}
	for _, rotation := range []bool{false, true} {
		for _, limit := range []int{0, 1, 2} {
			for _, hook := range []bool{false, true} {
				wire := seedAuthority()
				wire.Rotation, wire.AnswerLimit = rotation, limit
				if hook {
					calls := 0
					wire.Failure = func(name string, typ uint16) uint8 {
						calls++
						switch calls % 7 {
						case 3:
							return RcodeServerFailure
						case 5:
							return RcodeNameError
						}
						return RcodeSuccess
					}
				}
				refRotate, refCalls := 0, 0
				rng := rand.New(rand.NewSource(int64(limit)*4 + 1))
				for step := 0; step < 600; step++ {
					name, typ := names[rng.Intn(len(names))], types[rng.Intn(len(types))]
					at := fmt.Sprintf("rotation=%v limit=%d hook=%v step %d (%q type %d)", rotation, limit, hook, step, name, typ)

					resp := wire.Handle(&Message{
						Header:    Header{ID: uint16(step), RD: true},
						Questions: []Question{{Name: name, Type: typ, Class: ClassINET}},
					})
					refCalls++
					if injected := hook && (refCalls%7 == 3 || refCalls%7 == 5); injected {
						if resp.Header.AA || resp.Header.Rcode == RcodeSuccess || len(resp.Answers) != 0 {
							t.Fatalf("%s: injected failure answered %+v", at, resp)
						}
						continue
					}
					want, found := referenceResolve(wire, &refRotate, name, typ, 0)
					wantRcode := uint8(RcodeSuccess)
					if !found {
						wantRcode = RcodeNameError
					}
					if resp.Header.Rcode != wantRcode || !resp.Header.AA || !reflect.DeepEqual(resp.Answers, want) {
						t.Fatalf("%s: Handle answered rcode %d %v, the recursive resolution rcode %d %v",
							at, resp.Header.Rcode, resp.Answers, wantRcode, want)
					}
				}
				if wire.Queries() != 600 || wire.rotate != refRotate || (rotation && refRotate == 0) {
					t.Fatalf("rotation=%v limit=%d hook=%v: %d queries, cursor %d, reference cursor %d",
						rotation, limit, hook, wire.Queries(), wire.rotate, refRotate)
				}
			}
		}
	}
}

// SetA replaces a name's addresses in one critical section: queries
// racing a phase switch see the old set or the new one, never the name
// with no addresses.
func TestSetAIsAtomicUnderConcurrentLookups(t *testing.T) {
	a := NewAuthority()
	old, moved := ip("192.0.2.1"), ip("198.51.100.7")
	a.AddA("move.example", old)

	const lookups = 20000
	var writer, readers sync.WaitGroup
	stop := make(chan struct{})
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				a.SetA("move.example", moved)
			} else {
				a.SetA("move.example", old)
			}
		}
	}()
	for reader := 0; reader < 2; reader++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < lookups; i++ {
				resp := a.Handle(&Message{Questions: []Question{{Name: "move.example", Type: TypeA, Class: ClassINET}}})
				if ans := resp.Answers; len(ans) != 1 || (ans[0].Addr != old && ans[0].Addr != moved) {
					t.Errorf("query %d racing SetA answered %v", i, ans)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
