package tcp

import (
	"math/rand"
	"sort"
	"testing"

	"mptcplab/internal/seg"
)

// refInsert is the pre-optimization formulation of range insertion:
// append, sort by Start, merge left to right. insertRange must produce
// exactly the same disjoint set; this reference keeps it honest.
func refInsert(rs []seg.SACKBlock, blk seg.SACKBlock) []seg.SACKBlock {
	rs = append(rs, blk)
	sort.Slice(rs, func(i, j int) bool {
		return seg.SeqLT(rs[i].Start, rs[j].Start)
	})
	merged := rs[:1]
	for _, r := range rs[1:] {
		last := &merged[len(merged)-1]
		if seg.SeqLEQ(r.Start, last.End) {
			if seg.SeqGT(r.End, last.End) {
				last.End = r.End
			}
		} else {
			merged = append(merged, r)
		}
	}
	return merged
}

func equalRanges(a, b []seg.SACKBlock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInsertRangeMatchesReference drives the allocation-free insertion
// and the sort-then-merge reference through the same random block
// streams (including wraparound starts, overlaps, adjacency, and
// containment) and demands identical range sets at every step.
func TestInsertRangeMatchesReference(t *testing.T) {
	bases := []uint32{0, 1, 1 << 20, 0xffff_ff00} // last exercises seq wraparound
	for _, base := range bases {
		rng := rand.New(rand.NewSource(int64(base) + 7))
		var got, want []seg.SACKBlock
		for step := 0; step < 4000; step++ {
			start := base + uint32(rng.Intn(5000))
			end := start + uint32(1+rng.Intn(400))
			blk := seg.SACKBlock{Start: start, End: end}
			got, _ = insertRange(got, blk)
			want = refInsert(want, blk)
			if !equalRanges(got, want) {
				t.Fatalf("base %#x step %d: insertRange %v != reference %v after %v",
					base, step, got, want, blk)
			}
			// Occasionally advance the cumulative point like AdvanceUna
			// does, to keep the sets small and the positions varied.
			if step%97 == 96 && len(want) > 0 {
				una := want[0].End
				b := sackScoreboard{ranges: got}
				b.AdvanceUna(una)
				got = b.ranges
				out := want[:0]
				for _, r := range want {
					if seg.SeqLEQ(r.End, una) {
						continue
					}
					if seg.SeqLT(r.Start, una) {
						r.Start = una
					}
					out = append(out, r)
				}
				want = out
			}
		}
	}
}

// TestInsertRangeAllocFree pins the per-ACK SACK bookkeeping at zero
// steady-state allocations: once the range slices reach their working
// capacity, neither scoreboard nor receiver-side insertion may touch
// the heap. This is the alloc-gate for the single-path allocs gap
// (sort.Slice's closure + reflect swapper used to dominate the
// BenchmarkTCPSingle4MB profile).
func TestInsertRangeAllocFree(t *testing.T) {
	var b sackScoreboard
	var r rcvRanges
	// Warm to working capacity: disjoint ranges, then coalesce.
	storm := func() {
		for i := uint32(0); i < 32; i++ {
			b.Add(seg.SACKBlock{Start: i * 100, End: i*100 + 40})
			r.Add(i*100, i*100+40)
		}
		for i := uint32(0); i < 32; i++ {
			b.Add(seg.SACKBlock{Start: i*100 + 30, End: (i + 1) * 100})
			r.Add(i*100+30, (i+1)*100)
		}
		b.AdvanceUna(32 * 100)
		r.NextContiguous(32 * 100)
	}
	storm()
	allocs := testing.AllocsPerRun(100, storm)
	if allocs != 0 {
		t.Fatalf("SACK range insertion allocates %v/run in steady state, want 0", allocs)
	}
}
