package dns

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// seedAuthority builds the zone the lookup tests query: names with one
// and several addresses, with distinct TTLs.
func seedAuthority() *Authority {
	a := NewAuthority()
	a.AddA("multi.example", ip("192.0.2.1"), ip("192.0.2.2"), ip("192.0.2.3"))
	a.AddA("single.example", ip("198.51.100.1"))
	a.AddA("pair.example", ip("203.0.113.7"), ip("203.0.113.8"))
	// Distinct TTLs, so the minimum is not just any record's.
	for key, rrs := range a.records {
		for i := range rrs {
			rrs[i].TTL = uint32(60 + 30*((i+len(key))%5))
		}
	}
	return a
}

// lookupNames are the questions: every seeded name in several
// spellings, plus names that do not exist.
func lookupNames() []string {
	return []string{
		"multi.example", "MULTI.Example", "multi.example.", " Multi.EXAMPLE. ",
		"single.example", "pair.example", "Pair.Example.", "nowhere.example", "", ".",
	}
}

// referenceResolve is the resolution the Authority ran before its
// answers rotated by index, kept here as the oracle: it copies the
// matching records, then rotates and caps the copy.
func referenceResolve(a *Authority, rotate *int, name string, typ uint16) ([]RR, bool) {
	rrs, ok := a.records[recordKey(name)]
	if !ok {
		return nil, false
	}
	var addrs []RR
	for _, rr := range rrs {
		if rr.Type == typ {
			addrs = append(addrs, rr)
		}
	}
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

// handle's answer section is the resolution it replaced, kept above as
// the oracle, over a seeded question sequence under every
// rotation, answer limit and failure-hook setting; the query counter
// and the rotation cursor end where the oracle's do.
func TestHandleMatchesRecursiveResolution(t *testing.T) {
	names := lookupNames()
	types := []uint16{TypeA, typeAAAA, typeCNAME}
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
							return rcodeServerFailure
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

					resp := wire.handle(&Message{
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
					want, found := referenceResolve(wire, &refRotate, name, typ)
					wantRcode := uint8(RcodeSuccess)
					if !found {
						wantRcode = RcodeNameError
					}
					if resp.Header.Rcode != wantRcode || !resp.Header.AA || !reflect.DeepEqual(resp.Answers, want) {
						t.Fatalf("%s: Handle answered rcode %d %v, the reference resolution rcode %d %v",
							at, resp.Header.Rcode, resp.Answers, wantRcode, want)
					}
				}
				if wire.queryCount() != 600 || wire.rotate != refRotate || (rotation && refRotate == 0) {
					t.Fatalf("rotation=%v limit=%d hook=%v: %d queries, cursor %d, reference cursor %d",
						rotation, limit, hook, wire.queryCount(), wire.rotate, refRotate)
				}
			}
		}
	}
}
