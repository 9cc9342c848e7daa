package trace

import (
	"sort"

	"mptcplab/internal/seg"
)

// connID identifies one MPTCP connection within a capture.
type connID int

// mptcpTracker groups subflows into MPTCP connections by token — the
// same association logic an MPTCP server uses: an MP_CAPABLE SYN /
// SYN-ACK reveals each side's key (and thus both tokens); an MP_JOIN
// SYN names the connection by token. Each connection then gets its own
// data-sequence reassembly for out-of-order delay.
type mptcpTracker struct {
	nextID  connID
	byToken map[uint32]connID
	byFlow  map[Flow]connID
	conns   map[connID]*connState
}

type connState struct {
	id       connID
	subflows []Flow

	// Data-level reassembly (one direction: the bulk/data direction,
	// which for the paper's workloads is server->client; the tracker
	// keeps one stream per direction keyed by data-sender endpoint).
	streams map[Endpoint]*dataStream
}

type dataStream struct {
	rcvNxt     uint64
	seen       bool
	blocks     []ofoBlock
	ofoSamples []float64
}

func newMPTCPTracker() *mptcpTracker {
	return &mptcpTracker{
		byToken: make(map[uint32]connID),
		byFlow:  make(map[Flow]connID),
		conns:   make(map[connID]*connState),
	}
}

// token mirrors the mptcp package's key hash (FNV-1a over the key's
// little-endian bytes) so captures of our stack group correctly.
func tokenOfKey(key uint64) uint32 {
	h := uint32(2166136261)
	for i := 0; i < 8; i++ {
		h ^= uint32(key >> (8 * i) & 0xFF)
		h *= 16777619
	}
	return h
}

// observe digests one packet's MPTCP signaling and returns the
// connection the packet's flow belongs to (creating it as needed), or
// nil for non-MPTCP flows.
func (t *mptcpTracker) observe(p *Packet) *connState {
	f := p.Flow()

	if p.Seg.Has(seg.OptMPCapable) {
		id, ok := t.byFlow[canonical(f)]
		if !ok {
			id = t.newConn(canonical(f))
		}
		t.byToken[tokenOfKey(p.Seg.MPCapable.Key)] = id
		return t.conns[id]
	}
	if o := p.Seg.MPJoin; p.Seg.Has(seg.OptMPJoin) {
		if id, ok := t.byToken[o.Token]; ok {
			t.adopt(id, canonical(f))
			return t.conns[id]
		}
		// Unknown token (e.g. capture started mid-connection): treat
		// the join as its own connection so analysis still proceeds.
		id := t.newConn(canonical(f))
		t.byToken[o.Token] = id
		return t.conns[id]
	}
	if id, ok := t.byFlow[canonical(f)]; ok {
		return t.conns[id]
	}
	return nil
}

func (t *mptcpTracker) newConn(f Flow) connID {
	id := t.nextID
	t.nextID++
	t.conns[id] = &connState{id: id, streams: make(map[Endpoint]*dataStream)}
	t.adopt(id, f)
	return id
}

func (t *mptcpTracker) adopt(id connID, f Flow) {
	if _, ok := t.byFlow[f]; !ok {
		t.byFlow[f] = id
		t.conns[id].subflows = append(t.conns[id].subflows, f)
	}
}

// canonical orders a flow so both directions map to one key.
func canonical(f Flow) Flow {
	r := f.Reverse()
	if less(r.Src, f.Src) {
		return r
	}
	return f
}

func less(a, b Endpoint) bool {
	for i := 0; i < 4; i++ {
		if a.IP[i] != b.IP[i] {
			return a.IP[i] < b.IP[i]
		}
	}
	return a.Port < b.Port
}

// addDSS feeds one data packet's DSS mapping into the per-connection,
// per-sender reassembly and records out-of-order delay samples.
func (cs *connState) addDSS(sender Endpoint, ts int64, start, end uint64) {
	st, ok := cs.streams[sender]
	if !ok {
		st = &dataStream{}
		cs.streams[sender] = st
	}
	if !st.seen {
		st.seen = true
		st.rcvNxt = start
	}
	if end <= st.rcvNxt {
		return
	}
	if start < st.rcvNxt {
		start = st.rcvNxt
	}
	if start == st.rcvNxt {
		st.ofoSamples = append(st.ofoSamples, 0)
		st.rcvNxt = end
		st.drain(ts)
		return
	}
	for _, b := range st.blocks {
		if b.start <= start && end <= b.end {
			return
		}
	}
	st.blocks = append(st.blocks, ofoBlock{start: start, end: end, ts: ts})
	sort.Slice(st.blocks, func(i, j int) bool { return st.blocks[i].start < st.blocks[j].start })
}

func (st *dataStream) drain(now int64) {
	i := 0
	for ; i < len(st.blocks); i++ {
		b := st.blocks[i]
		if b.start > st.rcvNxt {
			break
		}
		if b.end > st.rcvNxt {
			st.rcvNxt = b.end
		}
		st.ofoSamples = append(st.ofoSamples, float64(now-b.ts)/1e6)
	}
	st.blocks = st.blocks[i:]
}

// ConnSummary reports one reconstructed MPTCP connection.
type ConnSummary struct {
	ID       int
	Subflows []Flow
	// OFOms has one out-of-order delay sample per data packet in the
	// connection's dominant (most data) direction.
	OFOms []float64
}

// Connections lists the MPTCP connections reconstructed from the
// capture, with per-connection reordering samples for the direction
// that carried the most data.
func (a *Analyzer) Connections() []ConnSummary {
	ids := make([]connID, 0, len(a.mptcp.conns))
	for id := range a.mptcp.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	out := make([]ConnSummary, 0, len(ids))
	for _, id := range ids {
		cs := a.mptcp.conns[id]
		var best *dataStream
		var bestN int
		for _, st := range cs.streams {
			if n := len(st.ofoSamples); n > bestN {
				best, bestN = st, n
			}
		}
		sum := ConnSummary{ID: int(cs.id), Subflows: cs.subflows}
		if best != nil {
			sum.OFOms = best.ofoSamples
		}
		out = append(out, sum)
	}
	return out
}
