// Package lazyrand is the repository's one random source: a
// rand.Source64 whose stream is bit-identical to math/rand's
// rand.NewSource for every seed, but whose Seed is O(1).
//
// The simulators keep every page a pure function of (Seed, rank) and
// every open-loop user of (Seed, uid) by giving each its own seeded
// stream. math/rand's additive lagged-Fibonacci source pays for a
// stream up front: Seed runs 1 841 Lehmer steps to fill 607 state words
// whether the stream then serves thousands of draws or one. Here a
// state word is computed when a draw first touches it, so a stream
// costs what it draws.
//
// The stdlib fills word i from three consecutive values of the chain
// x[k] = seed·A^k mod M (M = 2³¹−1, A = 48271; its seedrand is that
// Lehmer step written with Schrage's trick):
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// so with a table of the powers A^k mod M any word is three
// multiplications away from the seed. Draw n (1-based) adds word
// 607−n into word 334−n, indices mod 607, which means the first 273
// draws touch 546 distinct words, each for the first time: while lazy,
// a draw computes exactly the two words it needs and no bookkeeping of
// which words exist is required. After lazyDraws draws the untouched
// words are filled in one pass and the source runs the stdlib's
// two-loads-one-add step.
//
// rngCooked is not pasted here: init recovers it from the outputs of
// one stdlib source and cross-checks the recovery against further
// draws, so a toolchain whose math/rand stream differed would stop the
// program at start-up instead of silently changing every golden.
package lazyrand

import (
	"fmt"
	"math/rand"
	"runtime"
)

const (
	rngLen   = 607
	rngTap   = 273
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	rngMask  = 1<<63 - 1
	zeroSeed = 89482311 // what the stdlib substitutes for a seed ≡ 0 mod M
	warmup   = 20       // chain steps the stdlib discards before word 0

	// lazyDraws is how many draws after Seed compute their two state
	// words on demand; the last of them also fills the 61 words no draw
	// has reached yet. It is rngTap, the most it can be while every lazy
	// touch is a first touch (package comment), and there is nothing to
	// gain below that: a word computed lazily is kept, so a lower value
	// only does the same arithmetic sooner, for streams that may end
	// before they need it. Draws per stream over the benchmark's inputs
	// at seed 1 (loadgen: 20 000 users, two streams each; webgen: 2 000
	// ranks plus the netsim stream of each of the 1 271 pages that load):
	//
	//	draws      loadgen   webgen
	//	1                0      729   (the ranks that fail to load)
	//	2–8         10 195        0
	//	9–16        12 647        0
	//	17–32       11 878        2
	//	33–48        3 303        0
	//	49–96        1 854       52
	//	97–192         118      407
	//	193–273          3      349
	//	274–607          0      704
	//	> 607            0    1 027
	//
	// No loadgen stream gets as far as the fill and 1 731 of webgen's
	// do; at 48, the 95th percentile of loadgen's, the 2 783 streams
	// that end between draws 49 and 273 would fill the whole register
	// to read part of it.
	lazyDraws = rngTap
)

// pow[k] = A^k mod M. Word i reads pow[warmup+1+3i : warmup+4+3i].
var pow [warmup + 1 + 3*rngLen]uint32

// cooked is the stdlib's rngCooked, recovered in init.
var cooked [rngLen]int64

// source is a rand.Source64 drawing the same stream as the value
// rand.NewSource returns. Like that value it is not safe for concurrent
// use. The zero value is not seeded; use newSource.
type source struct {
	tap, feed int
	lazy      int    // draws left before the fill; 0 once vec is complete
	x         uint64 // normalised seed, in [1, M)
	vec       [rngLen]int64
}

// newSource returns a Source seeded with seed.
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// New returns a *rand.Rand over a fresh Source: the drop-in for
// rand.New(rand.NewSource(seed)). Its Seed method reseeds in O(1).
func New(seed int64) *rand.Rand { return rand.New(newSource(seed)) }

// Seed restarts the stream at seed. It touches no state word.
func (s *source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.lazy = lazyDraws
}

// word computes state word i of the seeded register: chain values
// 21+3i, 22+3i and 23+3i from x, packed and whitened as the stdlib does.
func (s *source) word(i int) int64 {
	p := pow[warmup+1+3*i:][:3]
	return int64(mulmod(s.x, p[0])<<40^mulmod(s.x, p[1])<<20^mulmod(s.x, p[2])) ^ cooked[i]
}

// mulmod returns x·p mod M for x, p in [1, M). Folding the high bits
// onto the low ones twice (2³¹ ≡ 1) leaves a value in [0, M] congruent
// to the product; M is prime, so the product is not a multiple of it and
// neither end of that range occurs.
func mulmod(x uint64, p uint32) uint64 {
	v := x * uint64(p)
	v = v&lehmerM + v>>31
	return v&lehmerM + v>>31
}

// Int63 returns the next 63 bits of the stream. A *rand.Rand calls it
// for everything but Rand.Uint64, so the step is written here, one
// dynamic call from the caller, and not in a helper two calls away
// (measured 3 ns of a 10 ns Intn).
func (s *source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.lazy > 0 {
		s.lazyStep()
		return s.vec[s.feed] & rngMask
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// Uint64 returns the next 64 bits of the stream: the step leaves its
// sum, top bit included, in the feed word.
func (s *source) Uint64() uint64 {
	s.Int63()
	return uint64(s.vec[s.feed])
}

// lazyStep is the sum of one of the first lazyDraws draws: neither word
// has been touched since Seed, so both come from the formula.
func (s *source) lazyStep() {
	t := s.word(s.tap)
	s.vec[s.tap], s.vec[s.feed] = t, s.word(s.feed)+t
	if s.lazy--; s.lazy == 0 {
		// lazyDraws = rngTap draws have fed words 61…333 and read words
		// 334…606; the words below feed (61) are the only ones missing.
		// Refilling any other would put a seeded value over a sum.
		for i := 0; i < s.feed; i++ {
			s.vec[i] = s.word(i)
		}
	}
}

func init() {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = uint32(uint64(pow[k-1]) * lehmerA % lehmerM)
	}
	recoverCooked(stdSource)
}

// stdSource is the generator this package reproduces.
func stdSource(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) }

// recoverCooked derives rngCooked from the first 607 outputs o[1..607]
// of a stdlib source. Draw k adds the word at tap 607−k into the word
// at feed 334−k (mod 607) and returns the sum, so with v the seeded
// register:
//
//	k =   1…273: o[k] = v[334−k] + v[607−k]   (both untouched)
//	k = 274…334: o[k] = v[334−k] + o[k−273]   (tap was fed at draw k−273)
//	k = 335…607: o[k] = v[941−k] + o[k−273]
//
// The last two lines give v[0…60] and v[334…606], the first then gives
// v[61…333]; cooked[i] is v[i] with the Lehmer part xored away. Draws
// past the 607th, and a second seed, check the result. newStd is
// stdSource; a test passes a stream that differs.
func recoverCooked(newStd func(seed int64) rand.Source64) {
	const seed = 1
	std := newStd(seed)
	var o [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(std.Uint64())
	}
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngLen-rngTap; k++ {
		v[rngLen-rngTap-k] = o[k] - o[k-rngTap]
	}
	for k := rngLen - rngTap + 1; k <= rngLen; k++ {
		v[2*rngLen-rngTap-k] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngLen-rngTap-k] = o[k] - v[rngLen-k]
	}
	cooked = [rngLen]int64{} // word is then the Lehmer part alone
	lehmer := source{x: seed}
	for i := range v {
		v[i] ^= lehmer.word(i)
	}
	cooked = v

	// Seed 1 alone proves little: the table absorbs whatever word gets
	// wrong for the seed it was recovered under. The second seed must be
	// unrelated to it (the chain of −1 is the complement of seed 1's,
	// and an error in pow would cancel): 0, which also has to become
	// zeroSeed on the way in.
	check := func(seed int64, std rand.Source64, drawn int) {
		mine := newSource(seed)
		for k := 1; k <= 3*rngLen; k++ {
			if got := mine.Uint64(); k > drawn && got != std.Uint64() {
				panic(fmt.Sprintf("lazyrand: math/rand's seeded stream in %s is not the additive "+
					"lagged-Fibonacci generator this package reproduces (seed %d, draw %d disagrees); "+
					"every golden in this repository depends on that stream", runtime.Version(), seed, k))
			}
		}
	}
	check(seed, std, rngLen)
	check(0, newStd(0), 0)
}
