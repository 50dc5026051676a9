package h2

import (
	"bytes"
	"testing"
)

// TestAppendBodyRule pins where a received body lives on its way to the
// caller: up to the largest pooled class it is staged in pooled storage
// and handed over in a fresh slice of its length; past that class the
// staging is plain memory, handed over without a final copy.
func TestAppendBodyRule(t *testing.T) {
	pastLargestClass := []int{1}
	for range 64 {
		pastLargestClass = append(pastLargestClass, 16384)
	}
	for _, c := range []struct {
		name        string
		payloads    []int
		stagedAtEnd bool
	}{
		{"one small frame then an empty END_STREAM", []int{512, 0}, true},
		{"one full frame", []int{16384}, true},
		{"several full frames", []int{16384, 16384, 16384, 16383, 16384, 5}, true},
		{"past the largest class", pastLargestClass, false},
	} {
		var (
			body, want []byte
			staged     bool
		)
		for i, n := range c.payloads {
			p := bytes.Repeat([]byte{byte(i + 1)}, n)
			want = append(want, p...)
			body, staged = appendBody(body, staged, p)
		}
		if staged != c.stagedAtEnd {
			t.Errorf("%s: staged %v at END_STREAM, want %v", c.name, staged, c.stagedAtEnd)
		}
		got := finishBody(body, staged)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: handed over %d bytes, not the %d received", c.name, len(got), len(want))
		}
		switch {
		case staged && len(got) > 0 && &got[0] == &body[0]:
			t.Errorf("%s: handed over the staging storage itself", c.name)
		case len(got) <= 1<<bufPoolMaxShift && cap(got) != len(got):
			t.Errorf("%s: handed over cap %d for %d bytes", c.name, cap(got), len(got))
		case !staged && len(got) > 0 && &got[0] != &body[0]:
			t.Errorf("%s: copied a body it could hand over as is", c.name)
		}
	}
}

// TestBufPoolRecyclesWithoutAllocating: taking a buffer from the
// size-class pool and putting it back allocates nothing, in every class,
// once the pool holds one.
func TestBufPoolRecyclesWithoutAllocating(t *testing.T) {
	if racePoolSlack > 0 {
		t.Skip("the race detector drops pooled buffers at random")
	}
	for _, n := range []int{1, 1 << 10, 1<<10 + 1, 16 << 10, 100000, 1 << 20} {
		if allocs := testing.AllocsPerRun(100, func() { putBuf(getBuf(n)) }); allocs != 0 {
			t.Errorf("a pooled round trip of a %d-byte buffer allocates %.2f objects", n, allocs)
		}
	}
}
