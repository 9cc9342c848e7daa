package mptcp

import (
	"math/rand"
	"reflect"
	"testing"

	"mptcplab/internal/sim"
)

// The DSS mapping lookup, the mapping prune and the reorder buffer's
// duplicate and position scans were linear in what a connection holds;
// binary searches and a head pop replaced them. The linear versions
// stay here, verbatim, as the oracle.

func refMappingFor(ms []mapping, off int64) *mapping {
	for i := range ms {
		m := &ms[i]
		if off >= m.off && off < m.off+m.length {
			return m
		}
	}
	return nil
}

func refSegmentLimit(ms []mapping, off int64, n int) int {
	if m := refMappingFor(ms, off); m != nil {
		if lim := m.off + m.length - off; int64(n) > lim {
			return int(lim)
		}
		return n
	}
	next := int64(-1)
	for i := range ms {
		if mo := ms[i].off; mo > off && (next < 0 || mo < next) {
			next = mo
		}
	}
	if next >= 0 && int64(n) > next-off {
		return int(next - off)
	}
	return n
}

func refPruneMappings(ms []mapping, dataAck uint64) []mapping {
	var keep []mapping
	for _, m := range ms {
		if m.dataSeq+uint64(m.length) > dataAck {
			keep = append(keep, m)
		}
	}
	return keep
}

func subflowWith(ms ...mapping) *Subflow {
	sf := &Subflow{}
	for _, m := range ms {
		sf.addMapping(m)
	}
	return sf
}

func TestMappingForBoundaries(t *testing.T) {
	// Stream offsets [10,20) [20,35) and, after a gap, [50,60).
	ms := []mapping{
		{dataSeq: 1000, off: 10, length: 10},
		{dataSeq: 1010, off: 20, length: 15},
		{dataSeq: 1025, off: 50, length: 10},
	}
	sf := subflowWith(ms...)
	c := &Conn{}
	cases := []struct {
		name    string
		off     int64
		dataSeq uint64 // 0 = no mapping covers off
		limit   int    // segmentLimit(off, 100)
	}{
		{"before the first mapping", 9, 0, 1},
		{"first byte of the first", 10, 1000, 10},
		{"last byte of the first", 19, 1000, 1},
		{"boundary belongs to the second", 20, 1010, 15},
		{"last byte of the second", 34, 1010, 1},
		{"first byte of the gap", 35, 0, 15},
		{"last byte of the gap", 49, 0, 1},
		{"first byte after the gap", 50, 1025, 10},
		{"last mapped byte", 59, 1025, 1},
		{"just after the last mapping", 60, 0, 100},
		{"far after the last mapping", 1 << 40, 0, 100},
		{"far before the first", 0, 0, 10},
	}
	for _, tc := range cases {
		got, ref := sf.mappingFor(tc.off), refMappingFor(ms, tc.off)
		if (got == nil) != (ref == nil) || (got != nil && *got != *ref) {
			t.Errorf("%s: mappingFor(%d) = %v, linear scan finds %v", tc.name, tc.off, got, ref)
		}
		if (got == nil) != (tc.dataSeq == 0) || (got != nil && got.dataSeq != tc.dataSeq) {
			t.Errorf("%s: mappingFor(%d) = %v, want dataSeq %d", tc.name, tc.off, got, tc.dataSeq)
		}
		if lim := c.segmentLimit(sf, tc.off, 100); lim != tc.limit || lim != refSegmentLimit(ms, tc.off, 100) {
			t.Errorf("%s: segmentLimit(%d, 100) = %d, want %d (linear scan: %d)",
				tc.name, tc.off, lim, tc.limit, refSegmentLimit(ms, tc.off, 100))
		}
	}
	if (&Subflow{}).mappingFor(0) != nil || c.segmentLimit(&Subflow{}, 0, 7) != 7 {
		t.Error("a subflow without mappings maps or limits a segment")
	}
}

// TestPruneMappingsReinjectedOutOfOrder pins which data ACK removes a
// reinjected mapping that sits behind newer data: the one that covers
// it, while its predecessors in the queue are still live.
func TestPruneMappingsReinjectedOutOfOrder(t *testing.T) {
	ms := []mapping{
		{dataSeq: 1000, off: 0, length: 100},
		{dataSeq: 1100, off: 100, length: 100},
		{dataSeq: 500, off: 200, length: 100}, // reinjected copy of older data
		{dataSeq: 1200, off: 300, length: 100},
	}
	sf := subflowWith(ms...)
	if !sf.dataUnordered {
		t.Fatal("appending older data behind newer left the queue marked ordered")
	}
	for _, step := range []struct {
		ack  uint64
		offs []int64 // stream offsets of the surviving mappings
	}{
		{550, []int64{0, 100, 200, 300}},
		{600, []int64{0, 100, 300}}, // the copy goes, from the middle
		{1099, []int64{0, 100, 300}},
		{1100, []int64{100, 300}},
		{1300, nil},
	} {
		sf.pruneMappings(step.ack)
		ms = refPruneMappings(ms, step.ack)
		var offs []int64
		for _, m := range sf.mappings.Items() {
			offs = append(offs, m.off)
		}
		if !reflect.DeepEqual(offs, step.offs) {
			t.Fatalf("after data ACK %d: offsets %v, want %v", step.ack, offs, step.offs)
		}
		if !reflect.DeepEqual(append([]mapping(nil), sf.mappings.Items()...), ms) {
			t.Fatalf("after data ACK %d: %v, the filter keeps %v", step.ack, sf.mappings.Items(), ms)
		}
		if step.ack >= 600 && sf.dataUnordered {
			t.Fatalf("after data ACK %d the out-of-order mapping is gone but the queue is still marked unordered", step.ack)
		}
	}
}

// TestMappingsMatchLinearScans appends, looks up and prunes random
// mappings — mostly in data order, some reinjected behind newer data —
// against the linear versions.
func TestMappingsMatchLinearScans(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sf, c := &Subflow{}, &Conn{}
		var ms []mapping
		off, dataNxt, dataAck := int64(0), uint64(initialDataSeq), uint64(initialDataSeq)
		for step := 0; step < 600; step++ {
			switch r := rng.Intn(10); {
			case r < 5: // fresh data, sometimes after a gap in the stream
				if rng.Intn(6) == 0 {
					off += int64(1 + rng.Intn(3000))
				}
				m := mapping{dataSeq: dataNxt, off: off, length: int64(1 + rng.Intn(4000))}
				dataNxt += uint64(m.length)
				off += m.length
				sf.addMapping(m)
				ms = append(ms, m)
			case r < 6 && dataNxt > dataAck: // reinjection of un-acked older data
				m := mapping{dataSeq: dataAck + uint64(rng.Int63n(int64(dataNxt-dataAck))), off: off, length: int64(1 + rng.Intn(2000))}
				off += m.length
				sf.addMapping(m)
				ms = append(ms, m)
			case r < 9: // data ACK
				dataAck += uint64(rng.Int63n(int64(dataNxt-dataAck) + 1))
				sf.pruneMappings(dataAck)
				ms = refPruneMappings(ms, dataAck)
			}
			if got := sf.mappings.Items(); len(got) != len(ms) || (len(ms) > 0 && !reflect.DeepEqual(append([]mapping(nil), got...), ms)) {
				t.Fatalf("seed %d step %d: mappings %v, linear versions hold %v", seed, step, got, ms)
			}
			for q := 0; q < 8; q++ {
				o := rng.Int63n(off + 10)
				got, ref := sf.mappingFor(o), refMappingFor(ms, o)
				if (got == nil) != (ref == nil) || (got != nil && *got != *ref) {
					t.Fatalf("seed %d step %d: mappingFor(%d) = %v, linear scan finds %v", seed, step, o, got, ref)
				}
				if got, ref := c.segmentLimit(sf, o, 1460), refSegmentLimit(ms, o, 1460); got != ref {
					t.Fatalf("seed %d step %d: segmentLimit(%d) = %d, linear scan gives %d", seed, step, o, got, ref)
				}
			}
		}
	}
}

// refInsert is ReorderBuffer.Insert with the linear duplicate scan,
// and refInsertBlock insertBlock with its linear carve and splice
// scans, as they were before the binary searches.
func refInsert(b *ReorderBuffer, now sim.Time, start, end uint64, subflow int) {
	if end <= start {
		return
	}
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
	for _, blk := range b.blocks {
		if blk.start <= start && end <= blk.end {
			b.DupBytes += int64(end - start)
			b.DupPackets++
			return
		}
	}
	if start == b.rcvNxt {
		b.PacketsInOrder++
		if b.OnSample != nil {
			b.OnSample(0, subflow)
		}
		b.rcvNxt = end
		delivered := int64(end - start)
		b.drain(now, &delivered)
		b.Delivered += delivered
		if b.OnDeliver != nil && delivered > 0 {
			b.OnDeliver(delivered)
		}
		return
	}
	b.PacketsOutOrder++
	refInsertBlock(b, ofoBlock{start: start, end: end, arrivedAt: now, subflow: subflow})
}

func refInsertBlock(b *ReorderBuffer, nb ofoBlock) {
	var pieces []ofoBlock
	cur := nb.start
	for _, ex := range b.blocks {
		if ex.end <= cur {
			continue
		}
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
		i := len(b.blocks)
		for j := range b.blocks {
			if b.blocks[j].start > p.start {
				i = j
				break
			}
		}
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

// reorderPair feeds the same insertions to a ReorderBuffer and to a
// second one driven by the linear reference, and compares every block,
// counter and delay sample.
type reorderPair struct {
	got, ref       *ReorderBuffer
	gotLog, refLog []sim.Time
}

func newReorderPair(initial uint64) *reorderPair {
	p := &reorderPair{got: NewReorderBuffer(initial), ref: NewReorderBuffer(initial)}
	p.got.OnSample = func(d sim.Time, sf int) { p.gotLog = append(p.gotLog, d, sim.Time(sf)) }
	p.ref.OnSample = func(d sim.Time, sf int) { p.refLog = append(p.refLog, d, sim.Time(sf)) }
	return p
}

func (p *reorderPair) insert(t testing.TB, now sim.Time, start, end uint64, subflow int) {
	t.Helper()
	p.got.Insert(now, start, end, subflow)
	refInsert(p.ref, now, start, end, subflow)
	g, r := p.got, p.ref
	if !reflect.DeepEqual(append([]ofoBlock(nil), g.blocks...), append([]ofoBlock(nil), r.blocks...)) {
		t.Fatalf("insert [%d,%d) sf=%d: blocks %v, linear version holds %v", start, end, subflow, g.blocks, r.blocks)
	}
	type counters struct {
		rcvNxt                                     uint64
		delivered, buffered, maxBuffered, dupBytes int64
		inOrder, outOrder, dupPackets              uint64
	}
	gc := counters{g.rcvNxt, g.Delivered, g.Buffered, g.MaxBuffered, g.DupBytes, g.PacketsInOrder, g.PacketsOutOrder, g.DupPackets}
	rc := counters{r.rcvNxt, r.Delivered, r.Buffered, r.MaxBuffered, r.DupBytes, r.PacketsInOrder, r.PacketsOutOrder, r.DupPackets}
	if gc != rc {
		t.Fatalf("insert [%d,%d) sf=%d: counters %+v, linear version has %+v", start, end, subflow, gc, rc)
	}
	if !reflect.DeepEqual(g.perSubflowOFO, r.perSubflowOFO) || !reflect.DeepEqual(p.gotLog, p.refLog) {
		t.Fatalf("insert [%d,%d) sf=%d: per-subflow bytes or delay samples diverge from the linear version", start, end, subflow)
	}
}

// TestReorderMatchesLinearScans holds hundreds of blocks out of order,
// the regime the binary searches are for.
func TestReorderMatchesLinearScans(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newReorderPair(1)
		for step := 0; step < 2000; step++ {
			base := p.got.RcvNxt()
			start := base + uint64(rng.Intn(400))*100
			if rng.Intn(50) == 0 {
				start = base // heal the hole at the front
			}
			if rng.Intn(8) == 0 && start > 50 {
				start -= uint64(rng.Intn(50)) // unaligned: partial overlaps
			}
			p.insert(t, sim.Time(step), start, start+uint64(1+rng.Intn(250)), rng.Intn(3))
		}
	}
}
