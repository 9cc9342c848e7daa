// Package mptcp implements Multipath TCP over the tcp package's
// subflow endpoints: MP_CAPABLE / ADD_ADDR / MP_JOIN connection
// establishment (with the stock delayed second SYN of Linux MPTCP
// v0.86 or the paper's simultaneous-SYN patch, §4.1.2), data-sequence
// mappings (DSS), pluggable packet schedulers (lowest-RTT default,
// round-robin, weighted, redundant, backup), coupled congestion
// control across subflows, a shared receive buffer with data-level
// reordering, and the optional receive-buffer penalization the paper
// removes for its measurements (§3.1).
package mptcp

import (
	"fmt"
	"sort"

	"mptcplab/internal/sim"
)

// ofoBlock is one received data-sequence range waiting (or not) for
// earlier data, tagged with the subflow that delivered it.
type ofoBlock struct {
	start, end uint64
	arrivedAt  sim.Time
	subflow    int
}

// ReorderBuffer assembles connection-level data from subflow
// deliveries. Packets whose data sequence number is not yet in order
// wait here — the paper's out-of-order delay (§3.3) is exactly the
// residence time this buffer measures.
type ReorderBuffer struct {
	rcvNxt  uint64
	initial uint64     // first expected data sequence (for accounting checks)
	blocks  []ofoBlock // sorted by start, non-overlapping
	scratch []ofoBlock // reused by insertBlock for gap carving

	// OnDeliver receives newly in-order byte counts.
	OnDeliver func(n int64)
	// OnSample receives one out-of-order delay observation per
	// delivered packet (zero for packets already in order on arrival).
	OnSample func(d sim.Time, subflow int)

	// perSubflowOFO tracks buffered out-of-order bytes by subflow for
	// the penalization heuristic.
	perSubflowOFO map[int]int64

	// Stats.
	Delivered       int64 // bytes handed to the application
	Buffered        int64 // bytes currently waiting out of order
	MaxBuffered     int64
	PacketsInOrder  uint64
	PacketsOutOrder uint64

	// Duplicate accounting: payload bytes presented more than once at
	// the data level and discarded here — redundant-scheduler copies,
	// reinjections that lost the race, and subflow retransmissions
	// re-presenting delivered ranges. DupPackets counts arrivals that
	// contributed no new bytes at all.
	DupBytes   int64
	DupPackets uint64
}

// NewReorderBuffer returns an empty buffer expecting data sequence
// numbers to start at initialSeq.
func NewReorderBuffer(initialSeq uint64) *ReorderBuffer {
	b := &ReorderBuffer{}
	b.reset(initialSeq)
	return b
}

// reset empties the buffer for a connection starting at initialSeq. It
// keeps the buffer's storage — the capacity of its block lists and its
// per-subflow map — and its callbacks, which belong to the connection
// that owns the buffer; every other field starts at zero.
func (b *ReorderBuffer) reset(initialSeq uint64) {
	ofo := b.perSubflowOFO
	if ofo == nil {
		ofo = make(map[int]int64)
	}
	clear(ofo)
	*b = ReorderBuffer{
		rcvNxt:        initialSeq,
		initial:       initialSeq,
		blocks:        b.blocks[:0],
		scratch:       b.scratch[:0],
		OnDeliver:     b.OnDeliver,
		OnSample:      b.OnSample,
		perSubflowOFO: ofo,
	}
}

// RcvNxt reports the next expected data sequence number.
func (b *ReorderBuffer) RcvNxt() uint64 { return b.rcvNxt }

// BufferedBytes reports bytes currently held out of order.
func (b *ReorderBuffer) BufferedBytes() int64 { return b.Buffered }

// SubflowOFOBytes reports the out-of-order bytes attributable to one
// subflow.
func (b *ReorderBuffer) SubflowOFOBytes(subflow int) int64 { return b.perSubflowOFO[subflow] }

// Insert records the arrival of data [start, end) from subflow at time
// now, delivering any newly contiguous data.
func (b *ReorderBuffer) Insert(now sim.Time, start, end uint64, subflow int) {
	if end <= start {
		return
	}
	// Trim data we already delivered (subflow-level retransmissions
	// and redundant-scheduler copies can re-present old ranges).
	if start < b.rcvNxt {
		trimTo := end
		if trimTo > b.rcvNxt {
			trimTo = b.rcvNxt
		}
		b.DupBytes += int64(trimTo - start)
		start = b.rcvNxt
	}
	if end <= start {
		b.DupPackets++
		return
	}
	// Trim against already-buffered ranges so accounting stays exact.
	// Only the block holding start can cover it: the first ending above.
	if i := b.searchBlocks(start); i < len(b.blocks) && b.blocks[i].start <= start && end <= b.blocks[i].end {
		b.DupBytes += int64(end - start)
		b.DupPackets++
		return // fully duplicate
	}

	if start == b.rcvNxt {
		// In order on arrival.
		b.PacketsInOrder++
		if b.OnSample != nil {
			b.OnSample(0, subflow)
		}
		b.rcvNxt = end
		delivered := int64(end - start)
		b.drain(now, &delivered)
		// Count before the callback: OnDeliver handlers (completion
		// hooks, invariant probes) must observe Delivered consistent
		// with rcvNxt.
		b.Delivered += delivered
		if b.OnDeliver != nil && delivered > 0 {
			b.OnDeliver(delivered)
		}
		return
	}

	// Out of order: store (splitting around existing blocks).
	b.PacketsOutOrder++
	b.insertBlock(ofoBlock{start: start, end: end, arrivedAt: now, subflow: subflow})
}

// searchBlocks returns the index of the first stored block ending
// above seq. Blocks are sorted and disjoint, so every block before it
// lies wholly at or below seq and it is also the first block that can
// start at or above seq.
func (b *ReorderBuffer) searchBlocks(seq uint64) int {
	return sort.Search(len(b.blocks), func(i int) bool { return b.blocks[i].end > seq })
}

// insertBlock adds a range, discarding overlap with stored blocks.
func (b *ReorderBuffer) insertBlock(nb ofoBlock) {
	// blocks is sorted and non-overlapping, so one pass from the first
	// block reaching past nb.start carves nb into the uncovered gaps.
	// The pieces land in a reusable scratch slice, so the per-packet
	// OOO path allocates nothing once the two slices have grown to the
	// connection's working size.
	pieces := b.scratch[:0]
	cur := nb.start
	at := b.searchBlocks(nb.start)
	for _, ex := range b.blocks[at:] {
		if ex.start >= nb.end {
			break
		}
		if cur < ex.start {
			pieces = append(pieces, ofoBlock{cur, ex.start, nb.arrivedAt, nb.subflow})
		}
		cur = ex.end
	}
	if cur < nb.end {
		pieces = append(pieces, ofoBlock{cur, nb.end, nb.arrivedAt, nb.subflow})
	}
	b.scratch = pieces
	var kept int64
	for _, p := range pieces {
		kept += int64(p.end - p.start)
	}
	b.DupBytes += int64(nb.end-nb.start) - kept
	if len(pieces) == 0 {
		b.DupPackets++
		return
	}
	for _, p := range pieces {
		// Splice into sorted position: a piece fills a gap, so it goes
		// right before the first block ending above it.
		i := b.searchBlocks(p.start)
		b.blocks = append(b.blocks, ofoBlock{})
		copy(b.blocks[i+1:], b.blocks[i:])
		b.blocks[i] = p
		n := int64(p.end - p.start)
		b.Buffered += n
		b.perSubflowOFO[p.subflow] += n
	}
	if b.Buffered > b.MaxBuffered {
		b.MaxBuffered = b.Buffered
	}
}

// drain advances rcvNxt across contiguous buffered blocks, emitting
// out-of-order delay samples for each as it becomes deliverable.
func (b *ReorderBuffer) drain(now sim.Time, delivered *int64) {
	i := 0
	for ; i < len(b.blocks); i++ {
		blk := b.blocks[i]
		if blk.start > b.rcvNxt {
			break
		}
		n := int64(blk.end - blk.start)
		b.Buffered -= n
		b.perSubflowOFO[blk.subflow] -= n
		if blk.start < b.rcvNxt {
			// The already-covered prefix was superseded by a copy that
			// arrived in order — duplicate bytes, not deliverable ones.
			ov := blk.end
			if ov > b.rcvNxt {
				ov = b.rcvNxt
			}
			b.DupBytes += int64(ov - blk.start)
		}
		if blk.end > b.rcvNxt {
			*delivered += int64(blk.end - b.rcvNxt)
			b.rcvNxt = blk.end
		}
		if b.OnSample != nil {
			b.OnSample(now-blk.arrivedAt, blk.subflow)
		}
	}
	if i > 0 {
		// Shift survivors down in place so the slice keeps its capacity
		// for later bursts instead of re-growing from a moved base.
		n := copy(b.blocks, b.blocks[i:])
		b.blocks = b.blocks[:n]
	}
}

// CheckInvariants verifies the buffer's structure and accounting: the
// block list sorted, disjoint, and strictly above rcvNxt; the buffered
// byte counters exactly matching the stored blocks; and delivered bytes
// equal to the distance rcvNxt has advanced. It is the invariant
// checker's observation point into data-level reassembly.
func (b *ReorderBuffer) CheckInvariants() error {
	var sum int64
	prev := b.rcvNxt
	for i, blk := range b.blocks {
		if blk.end <= blk.start {
			return fmt.Errorf("reorder: block %d empty [%d,%d)", i, blk.start, blk.end)
		}
		if i == 0 && blk.start <= b.rcvNxt {
			return fmt.Errorf("reorder: block at %d not above rcvNxt %d", blk.start, b.rcvNxt)
		}
		if i > 0 && blk.start < prev {
			return fmt.Errorf("reorder: block %d [%d,%d) overlaps previous end %d", i, blk.start, blk.end, prev)
		}
		prev = blk.end
		sum += int64(blk.end - blk.start)
	}
	if sum != b.Buffered {
		return fmt.Errorf("reorder: Buffered %d but blocks hold %d bytes", b.Buffered, sum)
	}
	if b.MaxBuffered < b.Buffered {
		return fmt.Errorf("reorder: MaxBuffered %d below Buffered %d", b.MaxBuffered, b.Buffered)
	}
	var perSF int64
	for sf, n := range b.perSubflowOFO {
		if n < 0 {
			return fmt.Errorf("reorder: subflow %d OFO bytes negative (%d)", sf, n)
		}
		perSF += n
	}
	if perSF != b.Buffered {
		return fmt.Errorf("reorder: per-subflow OFO sums to %d, Buffered is %d", perSF, b.Buffered)
	}
	if b.rcvNxt < b.initial {
		return fmt.Errorf("reorder: rcvNxt %d below initial %d", b.rcvNxt, b.initial)
	}
	if got := int64(b.rcvNxt - b.initial); got != b.Delivered {
		return fmt.Errorf("reorder: Delivered %d but rcvNxt advanced %d", b.Delivered, got)
	}
	if b.DupBytes < 0 {
		return fmt.Errorf("reorder: DupBytes negative (%d)", b.DupBytes)
	}
	return nil
}
