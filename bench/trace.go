package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans are
// recorded only by the harness's own files, around the calls it makes;
// nothing inside the program under test is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the tracer was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// SelfNS is the span's duration minus the part of it its child
	// spans cover; filled in by finish.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the tracing-off state: every method is a no-op, so timed passes call
// the same code as traced ones and pay one nil check per call.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setPass(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass = id
	t.mu.Unlock()
}

// begin opens a span under parent (0 for a root span) and returns its
// id, to be handed to end. Safe for concurrent use: campaign runs call
// it from worker goroutines through CampaignOpts.Intercept.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Name: name, StartNS: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fillSelfTimes(t.spans)
	return t.spans
}

// fillSelfTimes sets SelfNS on every span: its duration minus the
// union of its children's intervals (clipped to the span). The union
// matters because campaign runs on two workers overlap in time; two
// half-second children side by side cover half a second, not one.
func fillSelfTimes(spans []span) {
	type interval struct{ lo, hi int64 }
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartNS, s.EndNS})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.SelfNS = s.EndNS - s.StartNS
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		edge := s.StartNS // everything before edge is already accounted
		for _, k := range kids {
			lo, hi := max(k.lo, edge), min(k.hi, s.EndNS)
			if hi > lo {
				s.SelfNS -= hi - lo
				edge = hi
			}
		}
	}
}

// writeSpans flushes spans as NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
