package load

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/sweep"
	"mptcplab/internal/world"
)

// useIdle gives one test its own idle list, so that what it asserts or
// measures does not depend on which sweeps ran before it. kept, when
// non-nil, records every world the list scrubs to keep.
func useIdle(t *testing.T, kept *[]*world.World) *sweep.Idle[*world.World] {
	t.Helper()
	prev := idleWorlds
	var mu sync.Mutex
	idleWorlds = sweep.NewIdle(func(w *world.World) {
		if kept != nil {
			mu.Lock()
			*kept = append(*kept, w)
			mu.Unlock()
		}
		w.Reset()
	})
	t.Cleanup(func() { idleWorlds = prev })
	return idleWorlds
}

// idleSweep is the small sweep the idle-list tests run.
func idleSweep(t *testing.T, seed int64, workers int, intercept func(SweepJob, func() Row) Row) []byte {
	t.Helper()
	base := smokeConfig()
	base.Flows = 20
	opts := SweepOpts{Base: base, Clients: []int{8, 30}, Reps: 2, Seed: seed, Workers: workers, Intercept: intercept}
	var buf bytes.Buffer
	if err := RunSweep(opts).WriteJSON(&buf, base); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIdleWorldNeverKeepsSabotaged: a world left mid-run by a contained
// panic never reaches the idle list — not when the engine zeroes it,
// not when an interceptor's run sets it to nil, and not when the
// interceptor itself panics after its run.
func TestIdleWorldNeverKeepsSabotaged(t *testing.T) {
	target := SweepOpts{Seed: 5}.runSeed(0, 1)
	passthrough := func(_ SweepJob, run func() Row) Row { return run() }
	for _, tc := range []struct {
		name      string
		hookPanic bool
		intercept func(SweepJob, func() Row) Row
	}{
		{"run panics, engine contains", true, nil},
		{"run panics, interceptor's run contains", true, passthrough},
		{"interceptor panics after its run", false, func(job SweepJob, run func() Row) Row {
			row := run()
			if job.Config.Seed == target {
				panic("injected interceptor fault")
			}
			return row
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var kept []*world.World
			idle := useIdle(t, &kept)
			var sabotaged *world.World
			sabotage(t, target, func(f *fleet) {
				sabotaged = f.topo
				if tc.hookPanic {
					panic("injected fault")
				}
			})
			idleSweep(t, 5, 1, tc.intercept)
			if sabotaged == nil {
				t.Fatal("the sabotaged run never started")
			}
			if idle.Len() != 1 {
				t.Fatalf("the list keeps %d worlds after a serial sweep, want 1", idle.Len())
			}
			for _, w := range kept {
				if w == sabotaged {
					t.Fatal("the world of the sabotaged run went back to the idle list")
				}
			}
		})
	}
}

// TestIdleWorldExportsUnchanged: a sweep whose workers start from the
// worlds an earlier sweep left exports what it exports alone, serially
// and on a pool.
func TestIdleWorldExportsUnchanged(t *testing.T) {
	for _, workers := range []int{1, 2} {
		useIdle(t, nil)
		alone := idleSweep(t, 31, workers, nil)

		idle := useIdle(t, nil)
		idleSweep(t, 9, 4, nil)
		if idle.Len() == 0 {
			t.Fatal("the first sweep left no world")
		}
		if after := idleSweep(t, 31, workers, nil); !bytes.Equal(after, alone) {
			t.Errorf("workers=%d: the sweep exports other bytes after another one\nalone:\n%s\nafter:\n%s", workers, alone, after)
		}
	}
}

// TestIdleWorldConcurrentSweeps: sweeps running at once share the list
// safely (run it under -race), each exports its solo bytes, and the
// list never keeps more than GOMAXPROCS worlds.
func TestIdleWorldConcurrentSweeps(t *testing.T) {
	idle := useIdle(t, nil)
	seeds := []int64{3, 4, 5}
	solo := make([][]byte, len(seeds))
	for i, seed := range seeds {
		solo[i] = idleSweep(t, seed, 1, nil)
	}
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := idleSweep(t, seed, 4, nil); !bytes.Equal(got, solo[i]) {
				t.Errorf("seed %d: a concurrent sweep exports other bytes than it does alone", seed)
			}
		}()
	}
	wg.Wait()
	if n := idle.Len(); n == 0 || n > runtime.GOMAXPROCS(0) {
		t.Fatalf("the list keeps %d worlds, want 1..%d", n, runtime.GOMAXPROCS(0))
	}
}

// TestIdleWorldReachesNothing extends world's
// TestResetReleasesPreviousRun to the idle list: a kept world must
// reach no server host of any run it executed, its last included —
// every flow of a run reached its server, so a recycled connection,
// route or callback that kept one would pin it. Each run's server gets
// a sentinel only it reaches, through a tap; all of them must be
// collected while the list still holds the world.
func TestIdleWorldReachesNothing(t *testing.T) {
	idle := useIdle(t, nil)
	var made, collected atomic.Int64
	testRunHook = func(f *fleet) {
		sentinel := new([32]byte)
		runtime.SetFinalizer(sentinel, func(*[32]byte) { collected.Add(1) })
		f.topo.Server.AddTap(func(netem.Direction, sim.Time, *seg.Segment) { sentinel[0]++ })
		made.Add(1)
	}
	t.Cleanup(func() { testRunHook = nil })
	idleSweep(t, 7, 1, nil)
	testRunHook = nil
	if idle.Len() != 1 {
		t.Fatalf("the list keeps %d worlds, want 1", idle.Len())
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < made.Load(); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d run servers are still reachable from the idle world", made.Load()-collected.Load(), made.Load())
		}
	}
	runtime.KeepAlive(idle) // the kept world stays reachable, or nothing is tested
}
