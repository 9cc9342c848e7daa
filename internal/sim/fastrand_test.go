package sim

import (
	"math/rand"
	"runtime"
	"testing"
)

// The fast source only exists because its streams are frozen: golden
// export fixtures pin every draw made through RNG. These tests hold it
// to bit-identity with math/rand, not mere statistical quality.

func TestFastSourceActive(t *testing.T) {
	if !lfFastOK {
		t.Error("fast source failed its init self-check; NewRNG is using the slow fallback")
	}
}

var lfTestSeeds = []int64{0, 1, 2, -1, -7, 42, 1469598103934665603,
	lfMax, lfMax + 1, -lfMax, 1 << 40, -(1 << 52), 1<<63 - 1, -1 << 63}

// eagerSource is the source lfSource replaced, kept as a second oracle
// beside math/rand: the register is embedded and Seed fills all of it,
// on four LCG chains advanced interleaved from precomputed jumps. It
// shares lfSeedrand, lfModmul and the cooked table with the lazy
// source, but neither lfJump nor lfSlot.
type eagerSource struct {
	vec       [lfLen]int64
	tap, feed int
}

var eagerChainBase = [5]int{0, 152, 304, 456, lfLen} // 607 = 3·152 + 151

// eagerJump[k] = A^(warmup + 3·base) mod M for chain k's base slot.
var eagerJump = func() (j [4]uint64) {
	p, step := uint64(1), 0
	for k := range j {
		for ; step < lfWarmup+3*eagerChainBase[k]; step++ {
			p = lfModmul(p, lfSeedA)
		}
		j[k] = p
	}
	return j
}()

func (s *eagerSource) Seed(seed int64) {
	s.tap = 0
	s.feed = lfLen - lfTap
	seed %= lfMax
	if seed < 0 {
		seed += lfMax
	}
	if seed == 0 {
		seed = lfSeed0
	}
	x0 := int32(lfModmul(uint64(seed), eagerJump[0]))
	x1 := int32(lfModmul(uint64(seed), eagerJump[1]))
	x2 := int32(lfModmul(uint64(seed), eagerJump[2]))
	x3 := int32(lfModmul(uint64(seed), eagerJump[3]))
	fill := func(x int32, i int) (int32, int) {
		x = lfSeedrand(x)
		u := int64(x) << 40
		x = lfSeedrand(x)
		u ^= int64(x) << 20
		x = lfSeedrand(x)
		u ^= int64(x)
		s.vec[i] = u ^ lfCooked[i]
		return x, i + 1
	}
	i0, i1, i2, i3 := eagerChainBase[0], eagerChainBase[1], eagerChainBase[2], eagerChainBase[3]
	for j := 0; j < lfLen-eagerChainBase[3]; j++ { // the shortest chain's length
		x0, i0 = fill(x0, i0)
		x1, i1 = fill(x1, i1)
		x2, i2 = fill(x2, i2)
		x3, i3 = fill(x3, i3)
	}
	for i0 < eagerChainBase[1] { // drain the longer chains' leftover slots
		x0, i0 = fill(x0, i0)
	}
	for i1 < eagerChainBase[2] {
		x1, i1 = fill(x1, i1)
	}
	for i2 < eagerChainBase[3] {
		x2, i2 = fill(x2, i2)
	}
}

func (s *eagerSource) Uint64() uint64 {
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

func (s *eagerSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// matchOracles draws n values from got, Uint64 and Int63 interleaved,
// and holds each to math/rand and to the eager source.
func matchOracles(t *testing.T, seed int64, got *lfSource, n int) {
	t.Helper()
	std := rand.NewSource(seed).(rand.Source64)
	eager := &eagerSource{}
	eager.Seed(seed)
	for k := 0; k < n; k++ {
		var w, e, g uint64
		if k%3 == 2 {
			w, e, g = uint64(std.Int63()), uint64(eager.Int63()), uint64(got.Int63())
		} else {
			w, e, g = std.Uint64(), eager.Uint64(), got.Uint64()
		}
		if w != g || e != g {
			t.Fatalf("seed %d: draw %d of %d: stdlib %#x, eager %#x, lazy %#x", seed, k+1, n, w, e, g)
		}
	}
}

// Every draw count that ends on, beside or far from a boundary: the
// lazy threshold, the last exact lazy draw (lfTap) and the first that
// would not be (an lfLazy past lfTap fails there), one register cycle,
// several.
func TestFastSourceMatchesStdlib(t *testing.T) {
	counts := []int{0, 1, 2, lfLazy - 1, lfLazy, lfLazy + 1, lfTap, lfTap + 1, lfLen, 2000}
	for _, seed := range lfTestSeeds {
		for _, n := range counts {
			got := newLFSource(seed)
			matchOracles(t, seed, got, n)
			if filled := got.vec != nil; filled != (n > lfLazy) {
				t.Errorf("seed %d: after %d draws register filled = %v, threshold %d", seed, n, filled, lfLazy)
			}
		}
	}
}

// Reseeding an existing source must match a freshly seeded one, from
// either state, and leave it lazy again.
func TestFastSourceReseed(t *testing.T) {
	for _, before := range []int{0, 2, lfLazy, 100, 700} {
		s := newLFSource(1)
		for k := 0; k < before; k++ {
			s.Uint64()
		}
		s.Seed(99)
		if s.vec != nil {
			t.Errorf("reseed after %d draws kept the register", before)
		}
		matchOracles(t, 99, s, 700)
	}
}

// TestChildStreamBytes is the cost of a stream that is derived, drawn
// from once or twice and dropped — nearly all of them: three small
// objects, no register. One that keeps drawing builds it exactly once.
func TestChildStreamBytes(t *testing.T) {
	parent := NewRNG(20130923)
	measure := func(draws int) (objects, bytes float64) {
		const runs = 200
		f := func() {
			c := parent.Child("subflow")
			for k := 0; k < draws; k++ {
				c.Int63()
			}
		}
		objects = testing.AllocsPerRun(runs, f)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		return objects, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	if objects, bytes := measure(2); objects > 3 || bytes > 256 {
		t.Errorf("child + 2 draws: %.0f objects, %.0f bytes; want ≤ 3 and ≤ 256", objects, bytes)
	}
	const many, register = lfLazy + 36, lfLen * 8
	if objects, bytes := measure(many); objects != 4 || bytes < register || bytes >= 2*register {
		t.Errorf("child + %d draws: %.0f objects, %.0f bytes; want 4 and one %d-byte register", many, objects, bytes, register)
	}
}

func FuzzLazySource(f *testing.F) {
	for _, n := range []uint16{0, 1, lfLazy, lfLazy + 1, lfTap + 1, 1300} {
		f.Add(int64(n)*7919-3, n)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		want := rand.NewSource(seed).(rand.Source64)
		got := newLFSource(seed)
		for k := 0; k < int(n); k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d: stdlib %#x, lazy %#x", seed, k+1, w, g)
			}
		}
	})
}

func BenchmarkStdlibSourceSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rand.NewSource(int64(i))
	}
}

// A seed now fills nothing; Fill is the register build a stream pays
// at draw lfLazy+1, Eager the four-chain fill it replaced.
var sinkSource rand.Source

func BenchmarkFastSourceSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSource = newLFSource(int64(i))
	}
}

func BenchmarkFastSourceFill(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newLFSource(int64(i))
		s.fill()
		sinkSource = s
	}
}

func BenchmarkEagerSourceSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := &eagerSource{}
		s.Seed(int64(i))
		sinkSource = s
	}
}

func BenchmarkFastSourceChildTwoDraws(b *testing.B) {
	b.ReportAllocs()
	parent := NewRNG(1)
	for i := 0; i < b.N; i++ {
		c := parent.Child("subflow")
		c.Int63()
		c.Int63()
	}
}
