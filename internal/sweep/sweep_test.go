package sweep

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mptcplab/internal/sim"
)

// The engine's Seed must reproduce the two private helpers it
// replaced bit-for-bit: the experiment matrix packed (row, col, rep)
// and the load sweep packed (point, rep) into disjoint 21-bit fields.
// Any drift here would silently re-seed every pinned export.
func TestSeedMatchesLegacyPackings(t *testing.T) {
	legacyMatrix := func(campaign int64, row, col, rep int) int64 {
		packed := uint64(row)<<42 | uint64(col)<<21 | uint64(rep)
		return int64(sim.Splitmix64(sim.Splitmix64(uint64(campaign)) ^ packed))
	}
	legacySweep := func(campaign int64, point, rep int) int64 {
		packed := uint64(point)<<21 | uint64(rep)
		return int64(sim.Splitmix64(sim.Splitmix64(uint64(campaign)) ^ packed))
	}
	for campaign := int64(-3); campaign <= 99; campaign += 17 {
		for _, idx := range [][3]int{{0, 0, 0}, {1, 2, 3}, {7, 0, 19}, {1 << 20, 5, 1<<21 - 1}} {
			if got, want := Seed(campaign, idx[0], idx[1], idx[2]), legacyMatrix(campaign, idx[0], idx[1], idx[2]); got != want {
				t.Fatalf("Seed(%d, %v) = %d, legacy matrix mix = %d", campaign, idx, got, want)
			}
			if got, want := Seed(campaign, idx[1], idx[2]), legacySweep(campaign, idx[1], idx[2]); got != want {
				t.Fatalf("Seed(%d, %v) = %d, legacy sweep mix = %d", campaign, idx[1:], got, want)
			}
		}
	}
}

// Collision-freedom property: within a campaign, every grid index
// combination gets a distinct seed, and distinct campaigns produce
// disjoint seed sets over the same grid — the guarantee the old
// additive mix (Seed + row*1_000_003 + ...) broke.
func TestSeedCollisionFree(t *testing.T) {
	seen := map[int64]string{}
	for _, campaign := range []int64{1, 2, 42, -7} {
		for r := 0; r < 12; r++ {
			for c := 0; c < 12; c++ {
				for p := 0; p < 12; p++ {
					s := Seed(campaign, r, c, p)
					id := fmt.Sprintf("campaign %d job (%d,%d,%d)", campaign, r, c, p)
					if prev, dup := seen[s]; dup {
						t.Fatalf("seed collision: %s and %s both got %d", prev, id, s)
					}
					seen[s] = id
				}
			}
		}
	}
	// Regression for the linear-mix failure mode: index deltas must
	// not translate across campaigns.
	if Seed(1, 0, 0, 0)-Seed(1, 0, 0, 1) == Seed(2, 0, 0, 0)-Seed(2, 0, 0, 1) {
		t.Fatal("seed deltas repeat across campaigns; mix looks linear")
	}
}

// sweepRow is the toy result type the engine tests fold.
type sweepRow struct {
	job  int
	seed int64
	fail string
}

func runToy(t *testing.T, opts Opts, n int, panicJob int) (rows []sweepRow, st Stats) {
	t.Helper()
	st = Run(opts, n,
		func(ws *int, job int) sweepRow {
			*ws++
			if job == panicJob {
				panic("injected fault")
			}
			return sweepRow{job: job, seed: Seed(opts.Seed, job)}
		},
		func(job int, err error) sweepRow {
			line, _, _ := strings.Cut(err.Error(), "\n")
			return sweepRow{job: job, fail: line}
		},
		func(job int, r sweepRow) { rows = append(rows, r) })
	return rows, st
}

// The determinism contract: the absorbed row sequence is identical
// for every worker count, shuffle included.
func TestRunWorkerInvariance(t *testing.T) {
	const n = 40
	base := Opts{Seed: 42, Salt: 0x5eed, Workers: 1}
	want, _ := runToy(t, base, n, -1)
	if len(want) != n {
		t.Fatalf("serial run absorbed %d rows, want %d", len(want), n)
	}
	for _, workers := range []int{2, 4, 16} {
		opts := base
		opts.Workers = workers
		got, st := runToy(t, opts, n, -1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d absorbed a different row sequence", workers)
		}
		if st.Workers != workers || st.Cancelled {
			t.Fatalf("workers=%d: stats %+v", workers, st)
		}
		if st.BusyTime < 0 || st.WallTime <= 0 {
			t.Fatalf("workers=%d: implausible timing %+v", workers, st)
		}
	}
}

// The zero value resolves to all CPUs; explicit counts are honored.
func TestOptsWorkersDefault(t *testing.T) {
	if w := (Opts{}).workers(); w < 1 {
		t.Errorf("default workers = %d, want >= 1", w)
	}
	if w := (Opts{Workers: 3}).workers(); w != 3 {
		t.Errorf("explicit workers = %d, want 3", w)
	}
}

// Salt zero must leave jobs in natural order — the fuzz sweep's
// contract (scenario i is always seed+i, printed in order).
func TestRunNaturalOrderWithoutSalt(t *testing.T) {
	rows, _ := runToy(t, Opts{Seed: 9, Workers: 1}, 10, -1)
	for i, r := range rows {
		if r.job != i {
			t.Fatalf("row %d came from job %d; expected natural order without a salt", i, r.job)
		}
	}
}

// A panicking run becomes a failed row (first line only, no stack),
// the worker state is discarded, and every other job still executes.
func TestRunContainsPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rows, _ := runToy(t, Opts{Seed: 7, Salt: 0x5eed, Workers: workers}, 12, 5)
		if len(rows) != 12 {
			t.Fatalf("workers=%d: absorbed %d rows, want 12", workers, len(rows))
		}
		var failed *sweepRow
		for i := range rows {
			if rows[i].fail != "" {
				if failed != nil {
					t.Fatalf("workers=%d: more than one failed row", workers)
				}
				failed = &rows[i]
			}
		}
		if failed == nil || failed.job != 5 {
			t.Fatalf("workers=%d: expected exactly job 5 to fail, got %+v", workers, failed)
		}
		if !strings.Contains(failed.fail, "injected fault") {
			t.Fatalf("fail reason %q lost the panic message", failed.fail)
		}
		if strings.Contains(failed.fail, "\n") || strings.Contains(failed.fail, "goroutine") {
			t.Fatalf("fail reason %q leaked a stack trace", failed.fail)
		}
	}
}

// The engine zeroes a worker's state slot after containment, so the
// job after a panic starts from fresh state.
func TestRunResetsWorkerStateAfterPanic(t *testing.T) {
	var states []int
	Run(Opts{Workers: 1}, 4,
		func(ws *int, job int) int {
			states = append(states, *ws)
			*ws++
			if job == 1 {
				panic("boom")
			}
			return job
		},
		func(job int, err error) int { return -job },
		func(int, int) {})
	want := []int{0, 1, 0, 1} // reset after job 1's panic
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("worker state sequence %v, want %v", states, want)
	}
}

// Cancellation mid-sweep: workers stop claiming jobs, absorb sees
// exactly the executed runs — a contiguous prefix of the shuffled job
// order, in that order — and Stats.Cancelled is set.
func TestRunCancellation(t *testing.T) {
	const n = 100
	var order []int
	Run(Opts{Seed: 5, Salt: 0x5eed, Workers: 1}, n,
		func(ws *struct{}, job int) int { return job },
		func(job int, err error) int { return -1 },
		func(job, r int) { order = append(order, job) })
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var rows []int
		var executed atomic.Int64
		st := Run(Opts{Seed: 5, Salt: 0x5eed, Workers: workers, Context: ctx,
			Progress: func(done, total int) {
				if done == 3 {
					cancel()
				}
			}}, n,
			func(ws *struct{}, job int) int { executed.Add(1); return job },
			func(job int, err error) int { return -1 },
			func(job, r int) { rows = append(rows, r) })
		cancel()
		if !st.Cancelled {
			t.Fatalf("workers=%d: Stats.Cancelled not set", workers)
		}
		if len(rows) >= n || len(rows) < 3 {
			t.Fatalf("workers=%d: absorbed %d rows after cancel at 3", workers, len(rows))
		}
		if int(executed.Load()) != len(rows) {
			t.Fatalf("workers=%d: %d runs executed, %d absorbed", workers, executed.Load(), len(rows))
		}
		if !reflect.DeepEqual(rows, order[:len(rows)]) {
			t.Fatalf("workers=%d: absorbed %v, not the first %d of the job order %v", workers, rows, len(rows), order[:len(rows)])
		}
	}
}

// A pre-cancelled context executes nothing.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	st := Run(Opts{Workers: 4, Context: ctx},
		10,
		func(ws *struct{}, job int) int { ran++; return job },
		func(job int, err error) int { return -1 },
		func(int, int) {})
	if ran != 0 || !st.Cancelled {
		t.Fatalf("pre-cancelled sweep ran %d jobs (cancelled=%v)", ran, st.Cancelled)
	}
}

// Progress must report done counts increasing by exactly one, 1..n,
// under any worker count.
func TestRunProgressMonotone(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var seen []int
		Run(Opts{Workers: workers, Progress: func(done, total int) {
			if total != 20 {
				t.Fatalf("total = %d, want 20", total)
			}
			seen = append(seen, done)
		}}, 20,
			func(ws *struct{}, job int) int { return job },
			func(job int, err error) int { return -1 },
			func(int, int) {})
		if len(seen) != 20 {
			t.Fatalf("workers=%d: %d progress calls, want 20", workers, len(seen))
		}
		for i, d := range seen {
			if d != i+1 {
				t.Fatalf("workers=%d: progress %v not 1..20", workers, seen)
			}
		}
	}
}

func TestContainConvertsPanic(t *testing.T) {
	err := Contain(func() { panic("kaboom") })
	if err == nil || !strings.HasPrefix(err.Error(), "chaos: run panicked: kaboom\n") {
		t.Fatalf("Contain = %v, want the historical first line", err)
	}
	if err := Contain(func() {}); err != nil {
		t.Fatalf("Contain of clean fn = %v", err)
	}
}

// toyState is a worker state with an identity, for the idle-list tests.
type toyState struct {
	id, runs int
	scrubbed bool
}

// runIdleToy runs n jobs from idle, building a numbered state on first
// use; a job in panics panics after using its worker's state. It
// returns the state each job ran on, by job.
func runIdleToy(idle *Idle[*toyState], workers, n int, built *atomic.Int64, panics map[int]bool) []*toyState {
	on := make([]*toyState, n)
	RunFrom(idle, Opts{Workers: workers}, n,
		func(ws **toyState, job int) int {
			if *ws == nil {
				*ws = &toyState{id: int(built.Add(1))}
			}
			(*ws).runs++
			(*ws).scrubbed = false
			on[job] = *ws
			if panics[job] {
				panic("injected fault")
			}
			return job
		},
		func(job int, err error) int { return -1 },
		func(int, int) {})
	return on
}

// TestIdleCarriesStateAcrossSweeps: the next sweep's worker starts from
// the state the last sweep's worker handed back, scrubbed, instead of
// building one.
func TestIdleCarriesStateAcrossSweeps(t *testing.T) {
	idle := NewIdle(func(s *toyState) { s.scrubbed = true })
	var built atomic.Int64
	a := runIdleToy(idle, 1, 3, &built, nil)
	if idle.Len() != 1 || !a[0].scrubbed {
		t.Fatalf("after a serial sweep the list keeps %d states (scrubbed %v), want 1 scrubbed", idle.Len(), a[0].scrubbed)
	}
	b := runIdleToy(idle, 1, 3, &built, nil)
	if built.Load() != 1 || b[0] != a[0] || b[0].runs != 6 {
		t.Fatalf("the second sweep built %d states in all and ran on state %d (%d runs), want the first sweep's", built.Load(), b[0].id, b[0].runs)
	}
}

// TestIdleNeverKeepsZeroedState: a state the engine zeroed after a
// contained panic never reaches the list; the one its worker built
// next does.
func TestIdleNeverKeepsZeroedState(t *testing.T) {
	for _, workers := range []int{1, 2} {
		idle := NewIdle(func(s *toyState) { s.scrubbed = true })
		var built atomic.Int64
		on := runIdleToy(idle, workers, 1, &built, map[int]bool{0: true})
		if idle.Len() != 0 {
			t.Fatalf("workers=%d: the list kept %d states after the only job panicked", workers, idle.Len())
		}
		if on[0].scrubbed {
			t.Fatalf("workers=%d: a discarded state was scrubbed for keeping", workers)
		}
		sabotaged := on[0]
		on = runIdleToy(idle, 1, 4, &built, map[int]bool{1: true})
		if on[0] == sabotaged || on[2] == on[1] || idle.Len() != 1 {
			t.Fatalf("workers=%d: jobs ran on states %d %d %d %d; the list keeps %d", workers, on[0].id, on[1].id, on[2].id, on[3].id, idle.Len())
		}
		kept := runIdleToy(idle, 1, 1, &built, nil)[0]
		if kept != on[3] || kept == on[1] {
			t.Fatalf("workers=%d: the next sweep ran on state %d, want %d, built after the panic", workers, kept.id, on[3].id)
		}
	}
}

// TestIdleBounded: concurrent sweeps with more workers than GOMAXPROCS
// share one list safely (run it under -race), and it never keeps more
// than GOMAXPROCS states.
func TestIdleBounded(t *testing.T) {
	idle := NewIdle(func(s *toyState) { s.scrubbed = true })
	var built atomic.Int64
	workers := 3 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				runIdleToy(idle, workers, 2*workers, &built, nil)
				if n := idle.Len(); n > runtime.GOMAXPROCS(0) {
					t.Errorf("the list keeps %d states, bound %d", n, runtime.GOMAXPROCS(0))
				}
			}
		}()
	}
	wg.Wait()
	if n := idle.Len(); n == 0 || n > runtime.GOMAXPROCS(0) {
		t.Fatalf("the list keeps %d states after the sweeps, want 1..%d", n, runtime.GOMAXPROCS(0))
	}
}
