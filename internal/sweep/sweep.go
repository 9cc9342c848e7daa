// Package sweep is the generic campaign engine both runners in this
// repo execute on: a seeded job → row contract with deterministic
// fan-out. The engine owns the pieces the experiment matrix and the
// load sweep used to reimplement separately:
//
//   - per-run seed derivation (Seed: disjoint 21-bit index packing
//     through the Splitmix64 bijection),
//   - optional deterministic job-order shuffling (§3.2-style
//     randomized execution order, derived only from the seed),
//   - worker-pool fan-out with worker-local reusable state,
//   - panic containment (a run that panics becomes a failed row, not
//     a dead campaign; the worker's state is discarded),
//   - absorb-in-order: results fold into the caller's aggregates in
//     the fixed shuffled-list order for every worker count, so
//     exports are byte-identical whether a campaign ran serially or
//     on sixteen cores,
//   - context cancellation with deterministic partial results
//     (workers finish the run they are on, unexecuted jobs are
//     skipped during absorption).
//
// Runs are pure functions of their seed; everything wall-clock lands
// in Stats, never in results. That purity is also what makes the
// content-addressed result store (Store, Key, Memo) sound: see
// cache.go.
package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Opts configures one engine execution. The zero value runs every job
// in natural order on GOMAXPROCS workers.
type Opts struct {
	// Seed is the campaign seed; per-job seeds are the caller's
	// business (via Seed), but the execution-order shuffle derives
	// from it too, so equal seeds replay the same order.
	Seed int64
	// Salt, when non-zero, shuffles the job execution order with
	// rand.NewSource(Seed ^ Salt) — each runner keeps its historical
	// salt so refactoring onto the engine changed no byte of any
	// export. Zero leaves jobs in natural order.
	Salt int64
	// Workers sizes the pool: 0 = runtime.GOMAXPROCS(0), 1 = serial.
	// Results are byte-identical for every worker count.
	Workers int
	// Progress, if set, is invoked after each completed run with the
	// count of runs finished so far and the total. Invocations are
	// serialized; only done increasing by one per call is guaranteed
	// (completion order under a pool is nondeterministic).
	Progress func(done, total int)
	// Context, when non-nil, cancels the sweep: workers finish the
	// run they are on, stop claiming jobs, and Run returns with
	// Stats.Cancelled set, having absorbed only the executed jobs.
	Context context.Context
}

func (o Opts) cancelled() bool {
	return o.Context != nil && o.Context.Err() != nil
}

func (o Opts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats is the execution metadata of one engine run — wall-clock
// facts, deliberately separated from results so exports stay a pure
// function of the seed. BusyTime / WallTime approximates the parallel
// speedup.
type Stats struct {
	Workers  int
	WallTime time.Duration
	BusyTime time.Duration
	// Cancelled reports the sweep stopped early via Opts.Context.
	Cancelled bool
}

// Contain runs fn, converting a panic into an error carrying the
// panic value and a trimmed stack — the sweep workers' containment
// boundary: one exploding run becomes one failed-run row instead of
// tearing the whole harness down. The text keeps its historical
// "chaos:" prefix: its first line lands in exported fail_reasons.
func Contain(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("chaos: run panicked: %v\n%s", r, debug.Stack())
		}
	}()
	fn()
	return nil
}

// Run executes n jobs and folds their results in deterministic order.
//
// W is the worker-local state a runner reuses across its job stream
// (a testbed, an arena): each worker goroutine owns one *W slot,
// initially zero; run builds it on first use and resets it in place
// after. After a contained panic the engine zeroes the slot — its
// mid-run state is arbitrary — and the next job starts fresh.
//
// run executes job (an index into the caller's job list) and returns
// its row. A panic inside run is contained: failed(job, err) supplies
// the substitute row (err's first line is scheduling-independent; the
// stack beneath it is not, so exports must not include it).
//
// absorb folds one row into the caller's aggregates. It is called on
// the caller's goroutine, never concurrently with itself, run or
// Progress (a pool has returned before its first row is folded), in
// the fixed (shuffled) job order, for exactly the jobs that executed:
// a prefix of that order, the whole of it unless the sweep was
// cancelled — identical for any worker count, which is the engine's
// export-determinism contract.
func Run[W, R any](opts Opts, n int, run func(ws *W, job int) R, failed func(job int, err error) R, absorb func(job int, res R)) Stats {
	st := Stats{Workers: opts.workers()}

	// Shuffle an index permutation rather than the caller's job list:
	// same RNG, same swap sequence, so perm[k] is exactly the job the
	// pre-engine runners would have had at position k.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if opts.Salt != 0 {
		order := rand.New(rand.NewSource(opts.Seed ^ opts.Salt))
		order.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}

	start := time.Now()
	var busy atomic.Int64

	// exec runs one job inside the containment boundary and charges
	// its wall time to BusyTime.
	exec := func(ws *W, job int) R {
		t0 := time.Now()
		var res R
		if err := Contain(func() { res = run(ws, job) }); err != nil {
			var zero W
			*ws = zero
			res = failed(job, err)
		}
		busy.Add(int64(time.Since(t0)))
		return res
	}

	if st.Workers <= 1 {
		// Serial path: absorb each row as it lands, one worker state
		// reused across the whole campaign.
		var ws W
		for k := 0; k < n; k++ {
			if opts.cancelled() {
				break
			}
			absorb(perm[k], exec(&ws, perm[k]))
			if opts.Progress != nil {
				opts.Progress(k+1, n)
			}
		}
	} else {
		results := make([]R, n)
		executed := make([]bool, n)
		var next atomic.Int64
		next.Store(-1)
		var (
			wg         sync.WaitGroup
			progressMu sync.Mutex
			done       int
		)
		for w := 0; w < st.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ws W
				for {
					if opts.cancelled() {
						return
					}
					k := int(next.Add(1))
					if k >= n {
						return
					}
					results[k] = exec(&ws, perm[k])
					executed[k] = true
					if opts.Progress != nil {
						progressMu.Lock()
						done++
						opts.Progress(done, n)
						progressMu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		// Absorb in fixed job order, skipping runs cancellation left
		// unexecuted — partial campaigns are deterministic prefixes
		// of the full absorption sequence.
		for k := 0; k < n; k++ {
			if executed[k] {
				absorb(perm[k], results[k])
			}
		}
	}
	st.Cancelled = opts.cancelled()

	st.BusyTime = time.Duration(busy.Load())
	st.WallTime = time.Since(start)
	return st
}
