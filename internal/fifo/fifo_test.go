package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice drives a queue and a plain slice through the
// same random pushes, drops and truncations.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var want []int
	next := 0
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			q.Push(next)
			want = append(want, next)
			next++
		case r < 9:
			n := rng.Intn(len(want) + 1)
			if rng.Intn(4) > 0 {
				n = min(n, 2)
			}
			q.Drop(n)
			want = want[n:]
		default:
			n := rng.Intn(len(want) + 1)
			q.Truncate(n)
			want = want[:n]
		}
		got := q.Items()
		if len(got) != len(want) {
			t.Fatalf("step %d: %d items, want %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: Items()[%d] = %d, want %d", step, i, got[i], want[i])
			}
		}
	}
}

// TestQueueSteadyStateAllocFree pins what the in-flight records and
// DSS mappings rely on: a queue cycling at a fixed depth never grows
// or reallocates, however many elements pass through it.
func TestQueueSteadyStateAllocFree(t *testing.T) {
	var q Queue[[4]int64]
	for i := 0; i < 300; i++ {
		q.Push([4]int64{})
	}
	cycle := func() {
		for i := 0; i < 1000; i++ {
			q.Drop(2)
			q.Push([4]int64{})
			q.Push([4]int64{})
		}
	}
	cycle()
	held := cap(q.buf)
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a queue at constant depth allocates %v per 1000 cycles, want 0", allocs)
	}
	if cap(q.buf) != held {
		t.Fatalf("capacity moved from %d to %d at constant depth", held, cap(q.buf))
	}
}
