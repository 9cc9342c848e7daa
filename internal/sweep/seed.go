package sweep

// Seed derives one job's seed from the campaign seed and the job's
// grid indices. The indices are packed into disjoint 21-bit fields
// (most-significant first) and the packed word is passed through the
// Splitmix64 bijection, so every job of every grid up to 2^21 per
// axis gets a distinct seed, and distinct campaign seeds never share
// a job seed with each other's grids.
//
// This is the one implementation of the mix the experiment matrix
// (Seed(c, row, col, rep)) and the load sweep (Seed(c, point, rep))
// previously each carried privately; the fold below reproduces both
// packings bit-for-bit, which the legacy-equivalence test pins.
func Seed(campaign int64, idx ...int) int64 {
	var packed uint64
	for _, i := range idx {
		packed = packed<<21 | uint64(i)
	}
	return int64(splitmix64(splitmix64(uint64(campaign)) ^ packed))
}

// splitmix64 restates sim.Splitmix64 (the SplitMix finalizer, a
// bijection on uint64) so the engine imports nothing of the domain;
// TestSeedMatchesLegacyPackings pins Seed to sim's copy bit for bit.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
