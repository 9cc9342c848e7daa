package experiment

import (
	"bytes"
	"sync"
	"testing"

	"mptcplab/internal/sweep"
	"mptcplab/internal/units"
)

// parallelTestRows is a small two-row campaign grid used by the
// parallel-runner tests: one single-path and one multipath
// configuration so both runner code paths (runSP/runMP) execute under
// the pool.
func parallelTestRows() []RowSpec {
	return []RowSpec{
		{Label: "SP-WiFi", WiFi: baselineWiFi(), Cell: baselineCell(), Make: sp(SPWiFi)},
		{Label: "MP-2 (coupled)", WiFi: baselineWiFi(), Cell: baselineCell(), Make: mp(MP2, "coupled")},
	}
}

// TestMatrixParallelDeterminism is the guarantee that lets campaigns
// run parallel by default: the same seed must export byte-identical
// matrix JSON for any worker count, so parallelism can never silently
// change published numbers.
func TestMatrixParallelDeterminism(t *testing.T) {
	sizes := []units.ByteCount{64 * units.KB, 256 * units.KB}
	export := func(workers int) []byte {
		opts := CampaignOpts{Reps: 2, Seed: 21, SampleProfiles: true, Workers: workers}
		m := runMatrix("det", "determinism probe", parallelTestRows(), sizes, opts)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, m); err != nil {
			t.Fatalf("workers=%d: WriteJSON: %v", workers, err)
		}
		return buf.Bytes()
	}

	serial := export(1)
	for _, workers := range []int{2, 8} {
		if got := export(workers); !bytes.Equal(got, serial) {
			t.Errorf("workers=%d: exported JSON differs from serial runner\nserial:\n%s\nworkers=%d:\n%s",
				workers, serial, workers, got)
		}
	}
}

// TestMatrixParallelRace stresses the worker pool under the race
// detector: 8 workers over a multi-row grid, with a Progress callback
// that mutates shared state relying solely on the documented
// serialization contract (no locking of its own).
func TestMatrixParallelRace(t *testing.T) {
	sizes := []units.ByteCount{32 * units.KB, 64 * units.KB}
	var doneSeen []int // mutated by Progress with no explicit lock
	lastTotal := 0
	opts := CampaignOpts{
		Reps: 3, Seed: 4, SampleProfiles: true, Workers: 8,
		Progress: func(done, total int) {
			doneSeen = append(doneSeen, done)
			lastTotal = total
		},
	}
	m := runMatrix("race", "race probe", parallelTestRows(), sizes, opts)

	totalJobs := len(m.Rows) * len(sizes) * opts.Reps
	if lastTotal != totalJobs {
		t.Errorf("Progress total = %d, want %d", lastTotal, totalJobs)
	}
	if len(doneSeen) != totalJobs {
		t.Fatalf("Progress invoked %d times, want %d", len(doneSeen), totalJobs)
	}
	for i, d := range doneSeen {
		if d != i+1 {
			t.Fatalf("Progress done sequence broken at call %d: got %d, want %d", i, d, i+1)
		}
	}
	for _, row := range m.Rows {
		for i, c := range row.Cells {
			if c.Times.N()+c.Failures != opts.Reps {
				t.Errorf("%s/%v: %d samples + %d failures, want %d reps",
					row.Label, sizes[i], c.Times.N(), c.Failures, opts.Reps)
			}
		}
	}
}

// TestMatrixWorkersRecorded checks explicit worker counts are honored
// in the recorded metadata (the zero-value default is the sweep
// engine's: TestOptsWorkersDefault).
func TestMatrixWorkersRecorded(t *testing.T) {
	m := runMatrix("meta", "metadata probe", parallelTestRows()[:1],
		[]units.ByteCount{32 * units.KB}, CampaignOpts{Reps: 1, Seed: 2, Workers: 2})
	if m.Workers != 2 {
		t.Errorf("matrix recorded %d workers, want 2", m.Workers)
	}
	if m.WallTime <= 0 || m.BusyTime <= 0 {
		t.Errorf("timing metadata not recorded: wall=%v busy=%v", m.WallTime, m.BusyTime)
	}
}

// TestJobSeedsDistinct asserts the splitmix64 seed derivation is
// collision-free over a grid far larger than any real campaign. The
// old additive mix (Seed + row*1_000_003 + col*7919 + rep*104729)
// collided on such grids.
func TestJobSeedsDistinct(t *testing.T) {
	const rows, cols, reps = 40, 40, 40
	seen := make(map[int64]matrixJob, rows*cols*reps)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for p := 0; p < reps; p++ {
				s := sweep.Seed(1, r, c, p)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: (%d,%d,%d) and (%d,%d,%d) both map to %d",
						r, c, p, prev.row, prev.col, prev.rep, s)
				}
				seen[s] = matrixJob{r, c, p}
			}
		}
	}
	// Different campaign seeds must decorrelate the whole grid, not
	// just offset it.
	if sweep.Seed(1, 0, 0, 0)-sweep.Seed(1, 0, 0, 1) == sweep.Seed(2, 0, 0, 0)-sweep.Seed(2, 0, 0, 1) {
		t.Error("seed grids for campaigns 1 and 2 are linearly related")
	}
}

// TestMatrixParallelProgressConcurrentCampaigns runs two campaigns
// concurrently (as a higher-level driver might) to check runMatrix
// has no hidden package-level state.
func TestMatrixParallelProgressConcurrentCampaigns(t *testing.T) {
	sizes := []units.ByteCount{32 * units.KB}
	var wg sync.WaitGroup
	exports := make([][]byte, 2)
	for i := range exports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := CampaignOpts{Reps: 2, Seed: 33, SampleProfiles: true, Workers: 2}
			m := runMatrix("cc", "concurrent campaigns", parallelTestRows(), sizes, opts)
			var buf bytes.Buffer
			if err := WriteJSON(&buf, m); err != nil {
				t.Errorf("WriteJSON: %v", err)
				return
			}
			exports[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	if !bytes.Equal(exports[0], exports[1]) {
		t.Error("concurrent campaigns with equal seeds diverged")
	}
}
