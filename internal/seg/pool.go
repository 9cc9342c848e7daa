package seg

// Pool recycles Segments through a free list so the per-packet hot
// path (build → route → deliver, or build → drop) allocates nothing in
// steady state. A download's live-segment population is bounded by the
// windows in flight, so the pool stays O(window) while packet counts
// grow O(bytes).
//
// Ownership is linear: the sender Gets a segment, the netem layer
// carries it hop to hop, and whoever terminates its life — the final
// deliver after the receiver's synchronous Receive returns, or any
// drop point — Puts it back. Anything that must outlive that moment
// (capture taps, held SYNs) works on a Clone, which is an ordinary
// heap segment. A nil *Pool is valid and simply allocates: Get returns
// a fresh Segment and Put drops it for the GC, so code paths that
// predate pooling (tests, standalone links) work unchanged.
//
// A Pool is confined to one simulator goroutine like everything else
// it feeds; it is intentionally not safe for concurrent use.
type Pool struct {
	free []*Segment

	// Gets counts segments handed out; News counts the subset that had
	// to be freshly allocated (pool empty). News/Gets is the miss rate.
	Gets, News uint64
}

// Get returns an empty segment, recycled when possible.
func (p *Pool) Get() *Segment {
	if p == nil {
		return &Segment{}
	}
	p.Gets++
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		s.pooled = false
		return s
	}
	p.News++
	return &Segment{}
}

// Put resets s and returns it to the free list. Releasing the same
// segment twice panics: a double release means two owners believe they
// hold the segment, which silently corrupts later packets.
func (p *Pool) Put(s *Segment) {
	if p == nil || s == nil {
		return
	}
	if s.pooled {
		panic("seg: segment released to pool twice")
	}
	// The generation counter survives the reset (incremented): holders
	// that recorded Gen() at hand-off can detect recycling.
	*s = Segment{pooled: true, gen: s.gen + 1}
	p.free = append(p.free, s)
}

// Size reports how many segments are currently idle in the pool.
func (p *Pool) Size() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
