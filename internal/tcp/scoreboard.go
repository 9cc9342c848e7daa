package tcp

import (
	"sort"

	"mptcplab/internal/seg"
)

// insertRange merges the half-open block blk into the sorted, disjoint
// range set rs in place and returns the updated slice together with the
// number of bytes blk newly covered. Adjacent ranges (r.Start ==
// last.End) coalesce, matching the classic sort-then-merge formulation,
// but without sort.Slice: the per-ACK hot path calls this for every
// SACK block and sort.Slice allocates a closure plus a reflect-based
// swapper on every call, which dominated the allocation profile of both
// download benchmarks.
func insertRange(rs []seg.SACKBlock, blk seg.SACKBlock) ([]seg.SACKBlock, int64) {
	// Find the first range whose Start is strictly above blk.Start.
	i := searchRanges(rs, blk.Start)
	// blk grows into [lo, hi): its predecessor when they touch, and
	// every successor the growing range reaches.
	lo, merged := i, blk
	if i > 0 && seg.SeqLEQ(blk.Start, rs[i-1].End) {
		if seg.SeqLEQ(blk.End, rs[i-1].End) {
			return rs, 0
		}
		lo, merged.Start = i-1, rs[i-1].Start
	}
	var absorbed int64
	hi := lo
	for hi < len(rs) && seg.SeqLEQ(rs[hi].Start, merged.End) {
		if seg.SeqGT(rs[hi].End, merged.End) {
			merged.End = rs[hi].End
		}
		absorbed += int64(rs[hi].End - rs[hi].Start)
		hi++
	}
	added := int64(merged.End-merged.Start) - absorbed
	if hi > lo {
		rs[lo] = merged
		return append(rs[:lo+1], rs[hi:]...), added
	}
	rs = append(rs, seg.SACKBlock{})
	copy(rs[lo+1:], rs[lo:])
	rs[lo] = merged
	return rs, added
}

// searchRanges returns the index of the first range in the sorted,
// disjoint set rs whose Start is strictly above seqn; the range that
// could contain seqn, if any, is the one before it.
func searchRanges(rs []seg.SACKBlock, seqn uint32) int {
	return sort.Search(len(rs), func(i int) bool { return seg.SeqGT(rs[i].Start, seqn) })
}

// rangesCover reports whether one range of the sorted, disjoint set rs
// covers all of [start,end).
func rangesCover(rs []seg.SACKBlock, start, end uint32) bool {
	i := searchRanges(rs, start)
	return i > 0 && seg.SeqGEQ(rs[i-1].End, end)
}

// sackScoreboard tracks which parts of the unacknowledged send space
// the peer has selectively acknowledged, in the spirit of RFC 6675.
// Ranges are half-open [start, end) in sequence space, kept sorted and
// disjoint.
type sackScoreboard struct {
	ranges []seg.SACKBlock
	sacked int64 // bytes the ranges cover, kept in step by every mutation
}

// Add merges a SACK block into the scoreboard.
func (b *sackScoreboard) Add(blk seg.SACKBlock) {
	if !seg.SeqLT(blk.Start, blk.End) {
		return
	}
	var added int64
	b.ranges, added = insertRange(b.ranges, blk)
	b.sacked += added
}

// AdvanceUna drops ranges at or below the new cumulative ACK point.
func (b *sackScoreboard) AdvanceUna(una uint32) {
	// Sorted and disjoint: the ranges una passed are a prefix, and at
	// most the one after it straddles una.
	k := 0
	for k < len(b.ranges) && seg.SeqLEQ(b.ranges[k].End, una) {
		b.sacked -= int64(b.ranges[k].End - b.ranges[k].Start)
		k++
	}
	if k < len(b.ranges) && seg.SeqLT(b.ranges[k].Start, una) {
		b.sacked -= int64(una - b.ranges[k].Start)
		b.ranges[k].Start = una
	}
	if k > 0 {
		b.ranges = b.ranges[:copy(b.ranges, b.ranges[k:])]
	}
}

// IsSacked reports whether the whole range [start,end) is covered.
func (b *sackScoreboard) IsSacked(start, end uint32) bool {
	return rangesCover(b.ranges, start, end)
}

// SackedAbove reports the number of SACKed bytes at or above seqn.
func (b *sackScoreboard) SackedAbove(seqn uint32) int64 {
	var n int64
	for _, r := range b.ranges {
		start, end := r.Start, r.End
		if seg.SeqLT(start, seqn) {
			start = seqn
		}
		if seg.SeqLT(start, end) {
			n += int64(end - start)
		}
	}
	return n
}

// lossBound returns the highest sequence with at least thresh SACKed
// bytes at or above it, and whether the scoreboard holds that many at
// all. SackedAbove only falls as its argument rises, so
// SackedAbove(x) >= thresh exactly for x at or below the bound: the
// RFC 6675 loss test for a whole flight is one comparison per record.
func (b *sackScoreboard) lossBound(thresh int64) (uint32, bool) {
	for i := len(b.ranges) - 1; i >= 0; i-- {
		r := b.ranges[i]
		if n := int64(r.End - r.Start); n < thresh {
			thresh -= n
			continue
		}
		return r.End - uint32(thresh), true
	}
	return 0, false
}

// TotalSacked reports the number of bytes currently SACKed.
func (b *sackScoreboard) TotalSacked() int64 { return b.sacked }

// HighestSacked returns the top SACKed sequence, or una if none.
func (b *sackScoreboard) HighestSacked(una uint32) uint32 {
	if len(b.ranges) == 0 {
		return una
	}
	return b.ranges[len(b.ranges)-1].End
}

// Reset clears the scoreboard.
func (b *sackScoreboard) Reset() { b.ranges, b.sacked = b.ranges[:0], 0 }

// rcvRanges tracks out-of-order received spans on the receive side,
// both to generate SACK blocks and to know when arriving data is
// duplicate. Ranges are sorted, disjoint, all above rcvNxt.
type rcvRanges struct {
	ranges   []seg.SACKBlock
	recent   seg.SACKBlock // most recently changed block, reported first
	buffered int64         // bytes the ranges hold, kept in step by Add and NextContiguous
}

// Add records an arrived span.
func (r *rcvRanges) Add(start, end uint32) {
	if !seg.SeqLT(start, end) {
		return
	}
	r.recent = seg.SACKBlock{Start: start, End: end}
	var added int64
	r.ranges, added = insertRange(r.ranges, r.recent)
	r.buffered += added
}

// NextContiguous reports how far rcvNxt can advance given the stored
// ranges, consuming any range that begins at or below rcvNxt.
func (r *rcvRanges) NextContiguous(rcvNxt uint32) uint32 {
	// Sorted and disjoint: once one range starts above rcvNxt, so do
	// all that follow, so the consumed ranges are a prefix.
	k := 0
	for k < len(r.ranges) && seg.SeqLEQ(r.ranges[k].Start, rcvNxt) {
		x := r.ranges[k]
		if seg.SeqGT(x.End, rcvNxt) {
			rcvNxt = x.End
		}
		r.buffered -= int64(x.End - x.Start)
		k++
	}
	if k > 0 {
		r.ranges = r.ranges[:copy(r.ranges, r.ranges[k:])]
	}
	return rcvNxt
}

// Blocks renders up to max SACK blocks, most recently updated first,
// as RFC 2018 specifies.
func (r *rcvRanges) Blocks(max int) []seg.SACKBlock {
	if len(r.ranges) == 0 {
		return nil
	}
	return r.AppendBlocks(make([]seg.SACKBlock, 0, max), max)
}

// AppendBlocks is Blocks with a caller-supplied destination, so the
// per-ACK path can reuse one scratch array instead of allocating.
func (r *rcvRanges) AppendBlocks(blocks []seg.SACKBlock, max int) []seg.SACKBlock {
	if len(r.ranges) == 0 {
		return blocks
	}
	// Most recent first.
	if i := searchRanges(r.ranges, r.recent.Start); i > 0 && seg.SeqGEQ(r.ranges[i-1].End, r.recent.End) {
		blocks = append(blocks, r.ranges[i-1])
	}
	for i := len(r.ranges) - 1; i >= 0 && len(blocks) < max; i-- {
		x := r.ranges[i]
		dup := false
		for _, bseen := range blocks {
			if bseen == x {
				dup = true
				break
			}
		}
		if !dup {
			blocks = append(blocks, x)
		}
	}
	return blocks
}

// Contains reports whether [start,end) has already been received
// out-of-order.
func (r *rcvRanges) Contains(start, end uint32) bool {
	return rangesCover(r.ranges, start, end)
}

// BufferedBytes reports the total bytes held out-of-order.
func (r *rcvRanges) BufferedBytes() int64 { return r.buffered }
