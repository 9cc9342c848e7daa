package sim

import (
	"math/rand"
	"reflect"
	"unsafe"
)

// Fast-seeding source, bit-identical to math/rand.
//
// Every run derives labeled child streams (per link, per listener
// accept, per subflow, per flow), and math/rand's generator pays ~1900
// Schrage-division LCG steps per Seed — it dominated world-building
// profiles once the event loop itself stopped allocating. The RNG
// streams, however, are frozen: golden export fixtures pin every draw,
// so the generator cannot change, only the cost of seeding it.
//
// lfSource therefore reimplements the same additive lagged-Fibonacci
// generator (length 607, tap 273) with the seeding LCG's modulus
// folded instead of divided: 2^31 ≡ 1 (mod 2^31−1), so A·x mod M is a
// 64-bit multiply, a mask, a shift-add, and one conditional subtract.
// And it seeds lazily: nearly every child stream draws once or twice
// (an ISN, a nonce), so a source computes its first draws from the two
// register slots each needs and builds the 4.9 KB register only if
// asked for more. The table of cooked constants the seeder XORs in is
// recovered once at init from an actual seeded math/rand source, and a
// self-check then replays several seeds against math/rand; if layout
// or output ever disagrees, lfFastOK stays false and NewRNG falls back
// to the stock source — slower, never wrong.

const (
	lfLen    = 607
	lfTap    = 273
	lfMax    = 1<<31 - 1 // the seeding LCG's Mersenne modulus
	lfSeedA  = 48271     // its multiplier (MINSTD, as in math/rand)
	lfSeed0  = 89482311  // replacement for the degenerate zero seed
	lfWarmup = 20        // LCG steps discarded before filling the state

	// lfLazy is how many draws a source serves from its seed alone
	// before it builds the register, replaying them: any value ≤ lfTap
	// is exact (see Uint64), and a stream that crosses pays them twice.
	lfLazy = 64
)

var (
	lfCooked [lfLen]int64
	lfFastOK bool

	// lfJump[i] = A^(warmup + 3i) mod M: the one-multiply jump from a
	// seed to the LCG state slot i's three terms start from (the LCG
	// after n more steps is A^n·x mod M). Computed once in init.
	lfJump [lfLen]uint64
)

// lfModmul returns a·b mod 2^31−1 for a, b < 2^31, folding the 62-bit
// product twice.
func lfModmul(a, b uint64) uint64 {
	p := a * b
	p = (p & lfMax) + (p >> 31)
	p = (p & lfMax) + (p >> 31)
	if p >= lfMax {
		p -= lfMax
	}
	return p
}

// lfSeedrand advances the seeding LCG: A·x mod (2^31−1) by folding.
func lfSeedrand(x int32) int32 {
	v := lfSeedA * uint64(uint32(x))
	v = (v & lfMax) + (v >> 31) // can reach lfMax+48270: reduce before narrowing
	if v >= lfMax {
		v -= lfMax
	}
	return int32(v)
}

// lfTerms packs the next three LCG terms after state x the way
// math/rand's seeder lays them into one register slot.
func lfTerms(x int32) int64 {
	x = lfSeedrand(x)
	u := int64(x) << 40
	x = lfSeedrand(x)
	u ^= int64(x) << 20
	x = lfSeedrand(x)
	return u ^ int64(x)
}

// lfSlot is register slot i as math/rand seeds it. Nominally that is
// one 1841-step serial recurrence; jumping to each slot makes the slots
// independent, so one can be had alone and a whole fill pipelines.
func lfSlot(seed uint64, i int) int64 {
	return lfTerms(int32(lfModmul(seed, lfJump[i]))) ^ lfCooked[i]
}

// lfSource is the lagged-Fibonacci state: vec[feed] += vec[tap], with
// both cursors walking backwards through the register. A freshly seeded
// source has no register: its first lfLazy draws are computed from the
// seed, n counting them.
type lfSource struct {
	seed      uint64 // normalised into [1, M)
	n         int
	vec       *[lfLen]int64
	tap, feed int
}

func newLFSource(seed int64) *lfSource {
	s := &lfSource{}
	s.Seed(seed)
	return s
}

// Seed normalises the seed as math/rand does and drops the register.
func (s *lfSource) Seed(seed int64) {
	seed %= lfMax
	if seed < 0 {
		seed += lfMax
	}
	if seed == 0 {
		seed = lfSeed0
	}
	*s = lfSource{seed: uint64(seed)}
}

// fill seeds the register and replays the draws served without it.
func (s *lfSource) fill() {
	s.vec = new([lfLen]int64)
	for i := range s.vec {
		s.vec[i] = lfSlot(s.seed, i)
	}
	s.tap, s.feed = 0, lfLen-lfTap
	for ; s.n > 0; s.n-- {
		s.Uint64()
	}
}

// Uint64 is draw k = n+1 since Seed. On a full register it reads slots
// feed = 334−k and tap = 607−k (mod 607) and writes their sum to feed;
// the slots written so far are 333 … 335−k, so tap first reads a
// written one at k = 274. Up to k = lfTap both operands are therefore
// still as seeded, and the draw needs those two slots and nothing else.
func (s *lfSource) Uint64() uint64 {
	if s.vec == nil {
		if s.n < lfLazy {
			s.n++
			return uint64(lfSlot(s.seed, lfLen-lfTap-s.n) + lfSlot(s.seed, lfLen-s.n))
		}
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *lfSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// newSource returns the fast source when the init-time recovery and
// self-check succeeded, else the stock math/rand source.
func newSource(seed int64) rand.Source {
	if lfFastOK {
		return newLFSource(seed)
	}
	return rand.NewSource(seed)
}

func init() {
	p := uint64(1)
	for k := 0; k < lfWarmup; k++ {
		p = lfModmul(p, lfSeedA)
	}
	for i := range lfJump {
		lfJump[i] = p
		p = lfModmul(p, lfSeedA*lfSeedA*lfSeedA%lfMax)
	}
	if !lfRecoverCooked() {
		return
	}
	// Replay a spread of seeds against math/rand; any disagreement
	// (algorithm drift in a future stdlib) keeps the fallback.
	for _, seed := range []int64{0, 1, -7, 42, lfMax, 1 << 40, -(1 << 52)} {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newLFSource(seed))
		for k := 0; k < 700; k++ { // across the lazy→filled boundary and one full register cycle
			if want.Int63() != got.Int63() {
				return
			}
		}
	}
	lfFastOK = true
}

// lfRecoverCooked reads one seeded math/rand register and XORs out our
// own LCG terms, leaving the cooked table. Returns false if the
// stdlib's internal layout no longer matches.
func lfRecoverCooked() (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	v := reflect.ValueOf(rand.NewSource(1))
	if v.Kind() != reflect.Pointer {
		return false
	}
	f := v.Elem().FieldByName("vec")
	if !f.IsValid() || f.Kind() != reflect.Array || f.Len() != lfLen ||
		f.Type().Elem().Kind() != reflect.Int64 || !f.CanAddr() {
		return false
	}
	vec := (*[lfLen]int64)(unsafe.Pointer(f.UnsafeAddr()))
	for i := range lfCooked { // seed 1: slot i's terms start from lfJump[i] itself
		lfCooked[i] = lfTerms(int32(lfJump[i])) ^ vec[i]
	}
	return true
}
