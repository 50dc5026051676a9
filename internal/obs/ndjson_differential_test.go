package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// diffEncode fails unless appendEventJSON renders ev byte-identically
// to encoding/json. Trace byte-identity across runs is a CI gate, so
// the hand-rolled encoder is held to exact equality, not just semantic
// equivalence.
func diffEncode(t *testing.T, ev Event) {
	t.Helper()
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", ev, err)
	}
	got := appendEventJSON(nil, ev)
	if string(got) != string(want) {
		t.Fatalf("encoding mismatch for %+v:\n got %s\nwant %s", ev, got, want)
	}
}

func TestAppendEventJSONMatchesEncodingJSON(t *testing.T) {
	cases := []Event{
		{},
		{Rank: 1, Seq: 2, Kind: KindPageStart},
		{Rank: -5, Seq: 0, Kind: KindDNSQuery, Host: "www.example.com"},
		{Rank: 3, Seq: 9, Kind: KindCoalesceHit, Host: "a.example", Conn: "b.example", Detail: "origin"},
		{Rank: 7, Seq: 1, Kind: KindTLSHandshake, MS: 12.5},
		{Rank: 7, Seq: 1, Kind: KindTLSHandshake, MS: 0.0000001}, // %e territory
		{Rank: 7, Seq: 1, Kind: KindTLSHandshake, MS: 3.5e21},    // large %e
		{Rank: 7, Seq: 1, Kind: KindTLSHandshake, MS: -1e-9},     // negative small
		{Rank: 7, Seq: 1, Kind: KindTLSHandshake, MS: 1e21},      // boundary
		{Rank: 7, Seq: 1, Kind: KindTLSHandshake, MS: 0.000001},  // boundary %f
		{Rank: 7, Seq: 1, Kind: KindTLSHandshake, MS: math.Pi},   // shortest repr
		{Rank: 0, Seq: 0, Kind: "x", N: -1, DNS: 4, TLS: 3, IdealIP: 2, IdealOrigin: 1},
		{Kind: `quotes "and" back\slash`},
		{Kind: "html <escapes> & ampersand"},
		{Kind: "ctl\x00\x01\x1f\n\r\t chars"},
		{Kind: "unicode: héllo 世界 🚀"},
		{Kind: "line seps \u2028 and \u2029"},
		{Kind: string([]byte{0xff, 0xfe, 'a'})}, // invalid UTF-8
		{Kind: strings.Repeat("a", 300)},
		{Rank: math.MaxInt32, Seq: math.MinInt32, Kind: "extremes", N: math.MaxInt64},
	}
	for _, ev := range cases {
		diffEncode(t, ev)
	}
}

// TestAppendEventJSONMatchesEncodingJSONRandom fuzzes the encoder pair
// with seeded random events: random printable/binary strings and floats
// spanning the %f/%e formatting regimes.
func TestAppendEventJSONMatchesEncodingJSONRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randStr := func() string {
		n := rng.Intn(24)
		b := make([]byte, n)
		switch rng.Intn(3) {
		case 0: // printable ASCII
			for i := range b {
				b[i] = byte(0x20 + rng.Intn(0x5f))
			}
		case 1: // arbitrary bytes (often invalid UTF-8)
			rng.Read(b)
		default: // runes across planes
			rs := make([]rune, n)
			for i := range rs {
				rs[i] = rune(rng.Intn(0x3000))
			}
			return string(rs)
		}
		return string(b)
	}
	randFloat := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 1e-5 // straddles the 1e-6 cutover
		case 2:
			return rng.Float64() * 1e22 // straddles the 1e21 cutover
		default:
			return rng.NormFloat64() * 100
		}
	}
	for i := 0; i < 5000; i++ {
		diffEncode(t, Event{
			Rank:   rng.Intn(2000) - 1000,
			Seq:    rng.Intn(100),
			Kind:   randStr(),
			Host:   randStr(),
			Conn:   randStr(),
			MS:     randFloat(),
			N:      rng.Intn(10) - 5,
			Detail: randStr(),
			DNS:    rng.Intn(3),
			TLS:    rng.Intn(3),
		})
	}
}

// TestWriteNDJSONRoundTrip: the hand-rolled writer must stay readable
// by ReadNDJSON, preserving every event and the (Rank, Seq) sort.
func TestWriteNDJSONRoundTrip(t *testing.T) {
	tr := NewTrace()
	rng := rand.New(rand.NewSource(7))
	want := 0
	for i := 0; i < traceChunkSize+100; i++ { // cross a chunk boundary
		tr.Event(Event{Rank: rng.Intn(50), Seq: i, Kind: KindDNSQuery, Host: "h", MS: float64(i) / 3})
		want++
	}
	var sb strings.Builder
	if err := tr.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadNDJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != want {
		t.Fatalf("round trip %d events, want %d", len(evs), want)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Rank > evs[i].Rank || (evs[i-1].Rank == evs[i].Rank && evs[i-1].Seq > evs[i].Seq) {
			t.Fatalf("events out of (Rank, Seq) order at %d", i)
		}
	}
}

// TestTraceResetRecycles: reset must empty the trace and leave it
// usable; no chunk may carry events from one use into the next.
func TestTraceResetRecycles(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < traceChunkSize*2+5; i++ {
		tr.Event(Event{Rank: 1, Seq: i, Kind: KindRetry})
	}
	tr.reset()
	if tr.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", tr.Len())
	}
	tr.Event(Event{Rank: 2, Seq: 0, Kind: KindGoAway})
	evs := tr.events()
	if len(evs) != 1 || evs[0].Kind != KindGoAway {
		t.Fatalf("trace after Reset = %+v, want single goaway", evs)
	}
}

// reset drops all recorded events and their storage chunks.
func (t *Trace) reset() {
	t.mu.Lock()
	t.chunks = nil
	t.n = 0
	t.mu.Unlock()
}
