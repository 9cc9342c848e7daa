// Package sweep is the generic campaign engine both runners in this
// repo execute on: a seeded job → row contract with deterministic
// fan-out. The engine owns the pieces the experiment matrix and the
// load sweep used to reimplement separately:
//
//   - per-run seed derivation (Seed: disjoint 21-bit index packing
//     through the Splitmix64 bijection),
//   - optional deterministic job-order shuffling (§3.2-style
//     randomized execution order, derived only from the seed),
//   - worker-pool fan-out with worker-local reusable state, kept
//     between sweeps in a bounded idle list (Idle),
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

// Stats is the execution metadata of one campaign — wall-clock facts
// and run tallies, deliberately separated from results so exports stay
// a pure function of the seed. BusyTime / WallTime approximates the
// parallel speedup.
type Stats struct {
	Workers  int
	WallTime time.Duration
	BusyTime time.Duration
	// Cancelled reports the sweep stopped early via Opts.Context.
	Cancelled bool

	// The tallies below are the caller's: Run leaves them zero, and the
	// caller's absorb calls Tally once per executed run, so they follow
	// the deterministic absorb order. TotalEvents sums simulator
	// events; TotalViolations sums protocol-invariant violations (zero
	// is the only acceptable value) and FirstViolation is the earliest
	// one; FailedRuns counts runs the harness contained (a panic or a
	// watchdog kill) and FirstFailure is the earliest reason, one line.
	TotalEvents     uint64
	TotalViolations int
	FirstViolation  string
	FailedRuns      int
	FirstFailure    string
}

// Tally folds one absorbed run into the totals; a non-empty failReason
// marks the run failed.
func (s *Stats) Tally(events uint64, violations int, firstViolation, failReason string) {
	s.TotalEvents += events
	s.TotalViolations += violations
	if s.FirstViolation == "" {
		s.FirstViolation = firstViolation
	}
	if failReason != "" {
		s.FailedRuns++
		if s.FirstFailure == "" {
			s.FirstFailure = failReason
		}
	}
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

// Idle keeps worker states between sweeps, so that the next sweep's
// workers start from warm pools instead of building anew: RunFrom's
// workers take from it before building and hand their state back to it
// when they exit. It holds at most GOMAXPROCS states (a state handed
// back to a full list is dropped) and is safe for concurrent sweeps.
//
// A state is scrubbed as it is handed back, so that what the list
// keeps reaches pools and nothing of its last run; a zero state — a
// worker that never built one, or whose state a contained panic
// discarded — is never kept.
type Idle[W comparable] struct {
	scrub func(W)
	mu    sync.Mutex
	ws    []W
}

// NewIdle returns an empty list whose states scrub empties on release.
func NewIdle[W comparable](scrub func(W)) *Idle[W] {
	return &Idle[W]{scrub: scrub}
}

// take returns a kept state, or the zero W when none is kept (or l is
// nil).
func (l *Idle[W]) take() (w W) {
	if l == nil {
		return w
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.ws); n > 0 {
		w = l.ws[n-1]
		l.ws[n-1] = *new(W)
		l.ws = l.ws[:n-1]
	}
	return w
}

// release scrubs w and keeps it while the list is below its bound.
func (l *Idle[W]) release(w W) {
	if l == nil || w == *new(W) {
		return
	}
	l.scrub(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ws) < runtime.GOMAXPROCS(0) {
		l.ws = append(l.ws, w)
	}
}

// Len reports how many states the list keeps.
func (l *Idle[W]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ws)
}

// Run executes n jobs and folds their results in deterministic order:
// RunFrom with no idle list, for callers whose worker state is not
// worth keeping between sweeps.
func Run[W comparable, R any](opts Opts, n int, run func(ws *W, job int) R, failed func(job int, err error) R, absorb func(job int, res R)) Stats {
	return RunFrom(nil, opts, n, run, failed, absorb)
}

// RunFrom executes n jobs and folds their results in deterministic
// order.
//
// W is the worker-local state a runner reuses across its job stream
// (a testbed, an arena): each worker goroutine owns one *W slot, taken
// from idle (zero when it keeps none, or idle is nil); run builds it
// on first use and resets it in place after. After a contained panic
// the engine zeroes the slot — its mid-run state is arbitrary — and
// the next job starts fresh. When the worker exits, its state goes
// back to idle.
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
// export-determinism contract. A state taken from idle leaves no
// trace in any row: runs on a reused state are byte-identical to runs
// on a fresh one, which is each runner's reuse contract.
func RunFrom[W comparable, R any](idle *Idle[W], opts Opts, n int, run func(ws *W, job int) R, failed func(job int, err error) R, absorb func(job int, res R)) Stats {
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
		ws := idle.take()
		defer func() { idle.release(ws) }()
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
				ws := idle.take()
				defer func() { idle.release(ws) }()
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
