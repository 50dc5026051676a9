package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Trace is an append-only event recorder. Appends are cheap and
// concurrent; ordering is imposed only at serialization time, where
// events sort by (Rank, Seq) — the deterministic coordinates assigned
// by the emitting layer — so the NDJSON output of a sharded run is byte
// identical to a sequential one.
//
// Storage is a list of fixed-size chunks rather than one flat slice:
// appending never copies previously recorded events, so the per-event
// cost stays flat instead of spiking on every doubling of a
// multi-million-event trace.
type Trace struct {
	mu     sync.Mutex
	chunks [][]Event // every chunk full except the last
	n      int
}

// traceChunkSize is the number of events per storage chunk. At ~100
// bytes per Event a chunk is a few hundred KiB: large enough to
// amortize chunk bookkeeping to nothing, small enough that a mostly
// idle recorder wastes little.
const traceChunkSize = 4096

// NewTrace returns an empty trace recorder.
func NewTrace() *Trace { return &Trace{} }

var _ Recorder = (*Trace)(nil)

// Count implements Recorder as a no-op (traces hold events only).
func (t *Trace) Count(name string, delta int64) {}

// Event implements Recorder.
func (t *Trace) Event(ev Event) {
	t.mu.Lock()
	if len(t.chunks) == 0 || len(t.chunks[len(t.chunks)-1]) == traceChunkSize {
		t.chunks = append(t.chunks, make([]Event, 0, traceChunkSize))
	}
	c := &t.chunks[len(t.chunks)-1]
	*c = append(*c, ev)
	t.n++
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// events returns the events sorted by (Rank, Seq). The result is a
// copy; the trace keeps accepting appends.
func (t *Trace) events() []Event {
	t.mu.Lock()
	out := make([]Event, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteNDJSON serializes the trace as rank-ordered newline-delimited
// JSON, one event per line. Lines are rendered by appendEventJSON into
// one reusable buffer — byte-identical to encoding/json (differentially
// tested) without its per-line allocation.
func (t *Trace) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for _, ev := range t.events() {
		line = appendEventJSON(line[:0], ev)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON parses an event stream written by WriteNDJSON (or any
// NDJSON file of Event objects). Blank lines are skipped.
func ReadNDJSON(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
