// Package seeded is math/rand's default source with a faster Seed.
//
// math/rand seeds its additive lagged-Fibonacci generator by walking a
// Lehmer chain x ← 48271·x mod (2³¹−1) for 1 841 dependent steps, each
// a pair of divisions, and folding three chain values into each of the
// 607 state words. Source builds the same state with every chain value
// taken straight from a power table, x_e = 48271^e·x₀, so the 1 821
// products are independent and each is reduced by a Mersenne fold
// instead of a division. The stream that follows is math/rand's, bit
// for bit, for every seed: a run seeded here draws exactly the numbers
// it drew through rand.NewSource.
//
// The seeding table math/rand XORs into the state (its rngCooked) is
// not copied here; it is recovered once, at package initialisation,
// from math/rand's own first 607 outputs (see deriveCooked).
package seeded

import "math/rand"

const (
	rngLen    = 607
	rngTap    = 273
	int32max  = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA   = 48271
	warmUp    = 20       // chain steps math/rand discards before word 0
	zeroSeed  = 89482311 // math/rand's substitute for a seed ≡ 0
	rngMask   = 1<<63 - 1
	chainLen  = 3 * rngLen // chain values folded into the state
	cookedRef = 1          // the seed deriveCooked replays
)

// pow[e] is 48271^(warmUp+1+e) mod (2³¹−1): the multiplier that takes
// the seed to chain value warmUp+1+e.
var pow = func() (p [chainLen]uint64) {
	a := uint64(1)
	for i := 0; i <= warmUp; i++ {
		a = mulmod(a, lehmerA)
	}
	for e := range p {
		p[e] = a
		a = mulmod(a, lehmerA)
	}
	return p
}()

var cooked = deriveCooked()

// mulmod returns a·x mod (2³¹−1) for a, x < 2³¹: 2³¹ ≡ 1, so the high
// bits of the product fold onto the low ones.
func mulmod(a, x uint64) uint64 {
	p := a * x
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Source is a rand.Source64 whose stream equals rand.NewSource's for
// the same seed. The zero value must be seeded before use; one Source
// may be reseeded in place any number of times.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New returns rand.New(NewSource(seed)): the same *rand.Rand, draw for
// draw, as rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// Seed sets s to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.seed(seed, &cooked)
}

// seed rewinds the lags and fills s.vec with the chain triples of seed,
// each XORed with its word of table.
func (s *Source) seed(seed int64, table *[rngLen]int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range s.vec {
		p := pow[3*i : 3*i+3 : 3*i+3]
		u := int64(mulmod(p[0], x)) << 40
		u ^= int64(mulmod(p[1], x)) << 20
		u ^= int64(mulmod(p[2], x))
		s.vec[i] = u ^ table[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// deriveCooked recovers math/rand's seeding table from its stream. Draw
// k (from 1) adds slot tap(k) = −k into slot feed(k) = rngLen−rngTap−k
// (both mod rngLen) and returns the sum. Over the first lap every slot
// is a feed exactly once, and draw k's tap slot was the feed of draw
// k−rngTap, so from draw rngTap+1 on the tap reads an earlier output:
// those draws give the initial feed slots directly, and draws 1..rngTap
// then give the rest. The initial state XOR the raw triples is the
// table.
func deriveCooked() (c [rngLen]int64) {
	ref := rand.NewSource(cookedRef).(rand.Source64)
	var out [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	slot := func(i int) int { return ((i % rngLen) + rngLen) % rngLen }
	var init [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		init[slot(rngLen-rngTap-k)] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		init[slot(rngLen-rngTap-k)] = out[k] - init[slot(-k)]
	}
	var s Source
	s.seed(cookedRef, new([rngLen]int64))
	for i := range c {
		c[i] = init[i] ^ s.vec[i]
	}
	return c
}
