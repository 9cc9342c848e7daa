package netem

import (
	"testing"

	"mptcplab/internal/sim"
)

type recycled struct{ run, scrubs int }

var recycledKind = NewKind(func(r *recycled) { r.run = 0; r.scrubs++ })

// TestKindRecyclesOnlyAtReset: within a run every Get is a distinct
// object, even after objects are done with; Reset scrubs each object
// the run made exactly once, and the next run takes those before it
// makes new ones.
func TestKindRecyclesOnlyAtReset(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	first := map[*recycled]bool{}
	for i := 0; i < 3; i++ {
		r := recycledKind.Get(n)
		if first[r] || r.run != 0 || r.scrubs != 0 {
			t.Fatalf("Get %d: %+v, seen %v", i, *r, first[r])
		}
		r.run = 1
		first[r] = true
	}
	s.Reset()
	n.Reset()
	second := map[*recycled]bool{}
	for i := 0; i < 4; i++ {
		r := recycledKind.Get(n)
		if second[r] {
			t.Fatalf("Get %d handed out an object twice in one run", i)
		}
		second[r] = true
		if i < 3 && (!first[r] || r.run != 0 || r.scrubs != 1) {
			t.Fatalf("Get %d after Reset: %+v, from the first run %v", i, *r, first[r])
		}
		if i == 3 && (first[r] || r.scrubs != 0) {
			t.Fatalf("Get 3 after Reset should be new, got %+v", *r)
		}
	}
}
