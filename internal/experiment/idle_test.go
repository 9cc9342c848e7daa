package experiment

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
	"mptcplab/internal/units"
)

// useIdle gives one test its own idle list, so that what it asserts or
// measures does not depend on which campaigns ran before it. kept, when
// non-nil, records every testbed the list scrubs to keep.
func useIdle(t *testing.T, kept *[]*Testbed) *sweep.Idle[*Testbed] {
	t.Helper()
	prev := idleTestbeds
	var mu sync.Mutex
	idleTestbeds = sweep.NewIdle(func(tb *Testbed) {
		if kept != nil {
			mu.Lock()
			*kept = append(*kept, tb)
			mu.Unlock()
		}
		tb.scrub()
	})
	t.Cleanup(func() { idleTestbeds = prev })
	return idleTestbeds
}

// idleCampaign is the small campaign the idle-list tests run.
func idleCampaign(t *testing.T, seed int64, workers int, intercept func(CampaignJob, func() RunResult) RunResult) []byte {
	t.Helper()
	opts := CampaignOpts{Reps: 2, Seed: seed, SampleProfiles: true, Workers: workers, Intercept: intercept}
	m := runMatrix("idle", "idle-list probe", parallelTestRows(), []units.ByteCount{64 * units.KB}, opts)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIdleTestbedNeverKeepsSabotaged: a testbed left mid-run by a
// contained panic never reaches the idle list — not when the engine
// zeroes it, not when an interceptor's run sets it to nil, and not when
// the interceptor itself panics after its run.
func TestIdleTestbedNeverKeepsSabotaged(t *testing.T) {
	target := sweep.Seed(5, 0, 0, 1)
	passthrough := func(_ CampaignJob, run func() RunResult) RunResult { return run() }
	for _, tc := range []struct {
		name      string
		hookPanic bool
		intercept func(CampaignJob, func() RunResult) RunResult
	}{
		{"run panics, engine contains", true, nil},
		{"run panics, interceptor's run contains", true, passthrough},
		{"interceptor panics after its run", false, func(job CampaignJob, run func() RunResult) RunResult {
			res := run()
			if job.Seed == target {
				panic("injected interceptor fault")
			}
			return res
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var kept []*Testbed
			idle := useIdle(t, &kept)
			var sabotaged *Testbed
			sabotageMatrix(t, target, func(tb *Testbed) {
				sabotaged = tb
				if tc.hookPanic {
					panic("injected matrix fault")
				}
			})
			idleCampaign(t, 5, 1, tc.intercept)
			if sabotaged == nil {
				t.Fatal("the sabotaged run never started")
			}
			if idle.Len() != 1 {
				t.Fatalf("the list keeps %d testbeds after a serial campaign, want 1", idle.Len())
			}
			for _, tb := range kept {
				if tb == sabotaged {
					t.Fatal("the testbed of the sabotaged run went back to the idle list")
				}
			}
		})
	}
}

// TestIdleTestbedExportsUnchanged: a campaign whose workers start from
// the testbeds an earlier campaign left exports what it exports alone,
// serially and on a pool.
func TestIdleTestbedExportsUnchanged(t *testing.T) {
	for _, workers := range []int{1, 2} {
		useIdle(t, nil)
		alone := idleCampaign(t, 31, workers, nil)

		idle := useIdle(t, nil)
		idleCampaign(t, 9, 4, nil)
		if idle.Len() == 0 {
			t.Fatal("the first campaign left no testbed")
		}
		if after := idleCampaign(t, 31, workers, nil); !bytes.Equal(after, alone) {
			t.Errorf("workers=%d: the campaign exports other bytes after another one\nalone:\n%s\nafter:\n%s", workers, alone, after)
		}
	}
}

// TestIdleTestbedConcurrentCampaigns: campaigns running at once share
// the list safely (run it under -race), each exports its solo bytes,
// and the list never keeps more than GOMAXPROCS testbeds.
func TestIdleTestbedConcurrentCampaigns(t *testing.T) {
	idle := useIdle(t, nil)
	seeds := []int64{3, 4, 5}
	solo := make([][]byte, len(seeds))
	for i, seed := range seeds {
		solo[i] = idleCampaign(t, seed, 1, nil)
	}
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := idleCampaign(t, seed, 4, nil); !bytes.Equal(got, solo[i]) {
				t.Errorf("seed %d: a concurrent campaign exports other bytes than it does alone", seed)
			}
		}()
	}
	wg.Wait()
	if n := idle.Len(); n == 0 || n > runtime.GOMAXPROCS(0) {
		t.Fatalf("the list keeps %d testbeds, want 1..%d", n, runtime.GOMAXPROCS(0))
	}
}

// TestIdleTestbedReachesNothing extends world's
// TestResetReleasesPreviousRun to the idle list: a kept testbed must
// reach no host of any run it executed, its last included. Every run's
// server and client hosts get a sentinel only they reach, through a
// tap; all of them must be collected while the list still holds the
// testbed.
func TestIdleTestbedReachesNothing(t *testing.T) {
	idle := useIdle(t, nil)
	var made, collected atomic.Int64
	testMatrixHook = func(tb *Testbed) {
		for _, h := range []*netem.Host{tb.Server, tb.Client} {
			sentinel := new([32]byte)
			runtime.SetFinalizer(sentinel, func(*[32]byte) { collected.Add(1) })
			h.AddTap(func(netem.Direction, sim.Time, *seg.Segment) { sentinel[0]++ })
			made.Add(1)
		}
	}
	t.Cleanup(func() { testMatrixHook = nil })
	idleCampaign(t, 7, 1, nil)
	testMatrixHook = nil
	if idle.Len() != 1 {
		t.Fatalf("the list keeps %d testbeds, want 1", idle.Len())
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < made.Load(); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d run hosts are still reachable from the idle testbed", made.Load()-collected.Load(), made.Load())
		}
	}
	runtime.KeepAlive(idle) // the kept testbed stays reachable, or nothing is tested
}
