package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// span is one timed call the benchmark driver made into a layer. Spans
// are recorded from outside: nothing under internal/ is instrumented.
// The struct holds no pointers so it can live outside the Go heap.
type span struct {
	name   uint16 // index into tracer.names
	iter   int32
	id     int32
	parent int32 // noSpan for a root span
	start  int64 // ns since the tracer was made
	end    int64
	// allocs is the process-wide heap-object count over the span, set
	// only for stage spans (beginStage); -1 otherwise. It is exact when
	// nothing else allocates concurrently, which holds for the
	// sequential stages it is used on.
	allocs   int64
	mallocs0 uint64
}

// tracer keeps spans in preallocated memory and writes them out only
// after the last iteration. A nil *tracer is the tracing-off state:
// every method is a no-op, so workloads call it unconditionally.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span // off-heap, fixed capacity
	names   []string
	nameIDs map[string]uint16
	iter    int32
	dropped int
}

const noSpan int32 = -1

// offHeap returns n zeroed pointer-free values in anonymous mapped
// memory. The collector paces itself by heap size: trace buffers on the
// heap (tens of megabytes, as much as the harness's ballast) would halve
// the collection rate of the traced iterations and make them faster
// than the untraced ones they are compared with. The mapping lives
// until the process exits.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping trace buffer: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0], nil
}

func newTracer(capacity int) (*tracer, error) {
	spans, err := offHeap[span](capacity)
	if err != nil {
		return nil, err
	}
	return &tracer{t0: time.Now(), spans: spans, nameIDs: make(map[string]uint16)}, nil
}

func (t *tracer) setIteration(i int) {
	if t != nil {
		t.mu.Lock()
		t.iter = int32(i)
		t.mu.Unlock()
	}
}

// begin opens a span under parent (noSpan for a root) and returns its
// id, or noSpan when the buffer is full (counted, and an error at the
// end of the run).
func (t *tracer) begin(parent int32, name string) int32 {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return noSpan
	}
	nid, ok := t.nameIDs[name]
	if !ok {
		nid = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameIDs[name] = nid
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: nid, id: id, parent: parent, iter: t.iter, allocs: -1})
	// Stamp last so the bookkeeping is not billed to the span.
	t.spans[id].start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// beginStage is begin plus an exact allocation count (ReadMemStats
// stops the world for a few microseconds, so it is reserved for the
// handful of sequential stages per iteration).
func (t *tracer) beginStage(parent int32, name string) int32 {
	if t == nil {
		return noSpan
	}
	m := mallocs()
	id := t.begin(parent, name)
	if id != noSpan {
		t.mu.Lock()
		t.spans[id].mallocs0 = m
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) endStage(id int32) {
	if t == nil || id == noSpan {
		return
	}
	t.end(id)
	m := mallocs()
	t.mu.Lock()
	t.spans[id].allocs = int64(m - t.spans[id].mallocs0)
	t.mu.Unlock()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other
// when they ran on different goroutines, so coverage is a union).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.end - s.start) - covered
	}
	return self
}

// selfByName sums self time (ns) per span name and iteration.
func (t *tracer) selfByName() map[string]map[int32]int64 {
	self := selfTimes(t.spans)
	out := make(map[string]map[int32]int64)
	for i, s := range t.spans {
		name := t.names[s.name]
		if out[name] == nil {
			out[name] = make(map[int32]int64)
		}
		out[name][s.iter] += self[i]
	}
	return out
}

// coverage is the share of traced iteration wall time that the layer
// spans' self times account for (the rest is the driver's own glue
// between calls), as the minimum over iterations.
func (t *tracer) coverage() float64 {
	self := selfTimes(t.spans)
	cov := 1.0
	for i, s := range t.spans {
		if s.parent == noSpan && s.end > s.start {
			cov = min(cov, 1-float64(self[i])/float64(s.end-s.start))
		}
	}
	return cov
}

// spanRecord is the NDJSON form of a span.
type spanRecord struct {
	Name      string `json:"name"`
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Iteration int32  `json:"iteration"`
	Allocs    int64  `json:"allocs"`
}

func (t *tracer) writeNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(spanRecord{t.names[s.name], s.id, s.parent, s.start, s.end, s.iter, s.allocs}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
