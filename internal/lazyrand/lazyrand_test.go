package lazyrand

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// methods is every *rand.Rand method the tree calls (tests included),
// each returning what it drew as comparable bits. Together they cover
// both ways a Rand reaches its source: Int63 and, through Source64,
// Uint64.
var methods = []func(r *rand.Rand) uint64{
	func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
	func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
	func(r *rand.Rand) uint64 { return uint64(r.Intn(131072)) },
	func(r *rand.Rand) uint64 { return uint64(r.Intn(1_000_003)) },
	func(r *rand.Rand) uint64 { return uint64(r.Int31n(500)) },
	func(r *rand.Rand) uint64 { return r.Uint64() },
	func(r *rand.Rand) uint64 { return uint64(r.Uint32()) },
	func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) },
	func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) },
	func(r *rand.Rand) uint64 { return positional(r.Perm(7)) },
	func(r *rand.Rand) uint64 {
		p := []int{0, 1, 2, 3, 4, 5, 6}
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return positional(p)
	},
	func(r *rand.Rand) uint64 {
		var b [5]byte
		r.Read(b[:])
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 | uint64(b[4])<<32
	},
}

func positional(p []int) uint64 {
	var v uint64
	for _, x := range p {
		v = v*8 + uint64(x)
	}
	return v
}

// matches draws `draws` times from New(seed) and from the stdlib's
// generator, cycling through methods, reseeding both with a different
// seed before draw reseedAt, and fails at the first difference.
func matches(t *testing.T, seed int64, draws, reseedAt int) {
	t.Helper()
	got, want := New(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		if i == reseedAt {
			got.Seed(^seed)
			want.Seed(^seed)
		}
		m := methods[i%len(methods)]
		if g, w := m(got), m(want); g != w {
			t.Fatalf("seed %d, reseed at %d: draw %d (method %d) = %#x, math/rand draws %#x",
				seed, reseedAt, i, i%len(methods), g, w)
		}
	}
}

// The stream is math/rand's, bit for bit: for the seeds the stdlib
// treats specially (0 and its substitute, ±1, the modulus and its
// neighbours, values past 32 and 62 bits) and 200 random ones, over
// more than three turns of the register, through every Rand method,
// with a reseed while lazy, on the filling draw, and once filled.
func TestMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, zeroSeed, lehmerM, lehmerM + 1, -(1 << 40), 1<<62 + 12345,
		lehmerM - 1, -lehmerM, 2 * lehmerM, math.MaxInt64, math.MinInt64}
	pick := rand.New(rand.NewSource(rngLen))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		for _, reseedAt := range []int{-1, 1, lazyDraws / 2, lazyDraws - 1, lazyDraws, lazyDraws + 1, 2 * rngLen} {
			matches(t, seed, 3*rngLen+len(methods), reseedAt)
		}
	}
}

func FuzzMatchesMathRand(f *testing.F) {
	f.Add(int64(1), uint16(3*rngLen), uint16(lazyDraws))
	f.Add(int64(0), uint16(lazyDraws+1), uint16(7))
	f.Add(int64(-1<<40), uint16(2*rngLen), uint16(rngLen))
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		matches(t, seed, int(draws), int(reseedAt))
	})
}

var sink int64

// Reseeding is what the per-rank and per-user streams do once per unit
// of work: it must not allocate.
func TestSeedAndDrawDoNotAllocate(t *testing.T) {
	r := New(1)
	seed := int64(2)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Seed(seed)
		seed++
		sink += r.Int63()
	}); allocs != 0 {
		t.Errorf("Seed + one draw allocates %.1f times, want 0", allocs)
	}
}

// flipped is the stdlib stream with one bit wrong in draw n.
type flipped struct {
	rand.Source64
	n int
}

func (f *flipped) Uint64() uint64 {
	f.n--
	v := f.Source64.Uint64()
	if f.n == 0 {
		v ^= 1
	}
	return v
}

// If math/rand ever drew a different stream, the table recovered from
// its first 607 outputs would describe some other generator; init must
// stop the program, naming the toolchain, rather than run with it.
func TestRecoveryPanicsOnAForeignStream(t *testing.T) {
	saved := cooked
	defer func() {
		cooked = saved
		msg, _ := recover().(string)
		if !strings.Contains(msg, runtime.Version()) || !strings.Contains(msg, "math/rand") {
			t.Errorf("recovery over a stream that differs at draw %d: recovered %q, want a panic naming math/rand and %s",
				rngLen+100, msg, runtime.Version())
		}
	}()
	first := true
	recoverCooked(func(seed int64) rand.Source64 {
		if !first {
			return stdSource(seed)
		}
		first = false
		return &flipped{Source64: stdSource(seed), n: rngLen + 100}
	})
}

func BenchmarkSeedAndDraw(b *testing.B) {
	for _, draws := range []int{1, 16, 48, 273, 2000} {
		for _, src := range []struct {
			name string
			s    rand.Source64
		}{{"lazyrand", newSource(1)}, {"mathrand", stdSource(1)}} {
			b.Run(src.name+"/draws="+strconv.Itoa(draws), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					src.s.Seed(int64(i))
					for j := 0; j < draws; j++ {
						sink += src.s.Int63()
					}
				}
			})
		}
	}
}
