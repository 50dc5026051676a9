package h2

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// loopReader replays one encoded frame forever, so read benchmarks
// measure the parse path rather than buffer refills.
type loopReader struct {
	frame []byte
	off   int
}

func (lr *loopReader) Read(p []byte) (int, error) {
	n := copy(p, lr.frame[lr.off:])
	lr.off = (lr.off + n) % len(lr.frame)
	return n, nil
}

func encodeDataFrame(tb testing.TB, size int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fr := NewFramer(&buf, nil)
	if err := fr.WriteData(1, false, make([]byte, size)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkFramerReadFrame measures the steady-state frame read path
// across payload sizes. This is the regression gate for the read-buffer
// reuse fix: allocs/op must stay flat (zero) as frames grow, where the
// old code allocated a fresh payload buffer per frame.
func BenchmarkFramerReadFrame(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			enc := encodeDataFrame(b, size)
			fr := NewFramer(io.Discard, &loopReader{frame: enc})
			fr.setMaxReadFrameSize(1 << 20)
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fr.ReadFrame(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFramerReadFrameMixed interleaves frame types so every cached
// frame struct in the frameCache is exercised.
func BenchmarkFramerReadFrameMixed(b *testing.B) {
	var buf bytes.Buffer
	w := NewFramer(&buf, nil)
	if err := w.WriteData(1, false, make([]byte, 512)); err != nil {
		b.Fatal(err)
	}
	if err := w.writeWindowUpdate(1, 512); err != nil {
		b.Fatal(err)
	}
	if err := w.writePing(false, [8]byte{1}); err != nil {
		b.Fatal(err)
	}
	if err := w.writeSettings(Setting{ID: settingInitialWindowSize, Val: 65535}); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	fr := NewFramer(io.Discard, &loopReader{frame: enc})
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			if _, err := fr.ReadFrame(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFramerWriteData measures the direct-into-wbuf write path.
func BenchmarkFramerWriteData(b *testing.B) {
	for _, size := range []int{64, 16384} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			fr := NewFramer(io.Discard, nil)
			data := make([]byte, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fr.WriteData(1, false, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFramerWriteControl measures the small-control-frame write
// path (the frames the read loop emits constantly).
func BenchmarkFramerWriteControl(b *testing.B) {
	fr := NewFramer(io.Discard, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fr.writeWindowUpdate(1, 4096); err != nil {
			b.Fatal(err)
		}
		if err := fr.writePing(true, [8]byte{}); err != nil {
			b.Fatal(err)
		}
		if err := fr.writeSettingsAck(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmGet times a warm 512-byte GET over net.Pipe + crypto/tls
// in h2-live's request shape, client and server together, and reports
// what it allocates; TestRoundTripAllocBudget gates the count.
func BenchmarkWarmGet(b *testing.B) {
	get := warmSmallGet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// TestFramerReadFrameNoAllocsSteadyState is the hard gate behind the
// benchmark: once the read buffer has grown to fit the stream's largest
// frame, ReadFrame must not allocate at all.
func TestFramerReadFrameNoAllocsSteadyState(t *testing.T) {
	for _, size := range []int{64, 1024, 16384} {
		enc := encodeDataFrame(t, size)
		fr := NewFramer(io.Discard, &loopReader{frame: enc})
		fr.setMaxReadFrameSize(1 << 20)
		// Warm up: buffer growth and pool population happen here.
		for i := 0; i < 4; i++ {
			if _, err := fr.ReadFrame(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := fr.ReadFrame(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("size %d: ReadFrame allocates %.1f per op in steady state, want 0", size, allocs)
		}
	}
}

// TestFramerWriteNoAllocsSteadyState: same gate for the write side.
func TestFramerWriteNoAllocsSteadyState(t *testing.T) {
	fr := NewFramer(io.Discard, nil)
	data := make([]byte, 16384)
	for i := 0; i < 4; i++ {
		if err := fr.WriteData(1, false, data); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := fr.WriteData(1, false, data); err != nil {
			t.Fatal(err)
		}
		if err := fr.writeWindowUpdate(1, 4096); err != nil {
			t.Fatal(err)
		}
		if err := fr.writeSettingsAck(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("write path allocates %.1f per op in steady state, want 0", allocs)
	}
}
