package experiment

import (
	"context"
	"fmt"
	"strings"

	"mptcplab/internal/pathmodel"
	"mptcplab/internal/stats"
	"mptcplab/internal/sweep"
	"mptcplab/internal/units"
)

// Cell aggregates repeated runs of one (configuration, size) pair.
type Cell struct {
	Config RunConfig

	Times    *stats.Sample // download times, seconds
	Share    *stats.Sample // cellular traffic share per run
	WiFiLoss *stats.Sample // per-run WiFi loss rate, percent
	CellLoss *stats.Sample // per-run cellular loss rate, percent
	WiFiRTT  *stats.Sample // pooled per-packet WiFi RTTs, ms
	CellRTT  *stats.Sample // pooled per-packet cellular RTTs, ms
	OFO      *stats.Sample // pooled out-of-order delays, ms

	Failures int

	// series holds each absorbed run's per-packet series — WiFi RTTs,
	// cellular RTTs, OFO delays — in absorb order until pool copies
	// them into the pooled samples, each grown once to its exact size.
	series [][3][]float64
}

func newCell(rc RunConfig) *Cell {
	return &Cell{
		Config:   rc,
		Times:    stats.New(),
		Share:    stats.New(),
		WiFiLoss: stats.New(),
		CellLoss: stats.New(),
		WiFiRTT:  stats.New(),
		CellRTT:  stats.New(),
		OFO:      stats.New(),
	}
}

func (c *Cell) absorb(res RunResult) {
	if !res.Completed {
		c.Failures++
		return
	}
	c.Times.Add(res.DownloadTime.Seconds())
	c.Share.Add(res.CellShare())
	c.WiFiLoss.Add(res.WiFiLossRate() * 100)
	c.CellLoss.Add(res.CellLossRate() * 100)
	c.series = append(c.series, [3][]float64{res.WiFiRTTms, res.CellRTTms, res.OFOms})
}

// pool moves the absorbed runs' per-packet series into the cell's
// pooled samples in absorb order, sizing each sample once instead of
// regrowing it by doubling run after run.
func (c *Cell) pool() {
	for i, s := range []*stats.Sample{c.WiFiRTT, c.CellRTT, c.OFO} {
		n := 0
		for _, run := range c.series {
			n += len(run[i])
		}
		s.Grow(n)
		for _, run := range c.series {
			s.AddAll(run[i])
		}
	}
	c.series = nil
}

// RowSpec describes one figure row: a labeled configuration over a
// particular pair of access networks.
type RowSpec struct {
	Label string
	WiFi  pathmodel.Profile
	Cell  pathmodel.Profile
	// Make builds the run configuration for a given file size.
	Make func(size units.ByteCount) RunConfig
}

// Matrix is the generic result grid behind the paper's figures: one
// row per configuration, one column per file size.
type Matrix struct {
	ID    string
	Title string
	Sizes []units.ByteCount
	Rows  []MatrixRow

	// Campaign execution metadata, filled by runMatrix and excluded
	// from the CSV/JSON exports (which must stay a pure function of
	// the seed). Cancelled means CampaignOpts.Context stopped the
	// campaign early; cells then hold only the runs that finished.
	sweep.Stats
}

// MatrixRow is one configuration's cells across the sizes.
type MatrixRow struct {
	Label string
	Cells []*Cell // parallel to Matrix.Sizes
}

// Cell looks up a row/size cell; nil if absent.
func (m *Matrix) Cell(rowLabel string, size units.ByteCount) *Cell {
	for _, r := range m.Rows {
		if r.Label != rowLabel {
			continue
		}
		for i, s := range m.Sizes {
			if s == size {
				return r.Cells[i]
			}
		}
	}
	return nil
}

// CampaignOpts tunes a measurement campaign.
type CampaignOpts struct {
	// Reps is the number of repetitions per cell (the paper performs
	// 20 per time period; benchmarks use fewer).
	Reps int
	// Seed drives all randomness; equal seeds reproduce campaigns
	// exactly.
	Seed int64
	// Workers is the number of goroutines executing runs concurrently:
	// 0 (the default) uses runtime.GOMAXPROCS(0), 1 forces the legacy
	// serial path. Aggregates are byte-identical for every worker
	// count: each run owns a private Testbed seeded purely from
	// (Seed, row, col, rep), and results are folded into cells in the
	// same deterministic order the serial runner uses.
	Workers int
	// SampleProfiles applies per-run network variation (§3.2's
	// temporal and spatial randomization). On by default in scenarios.
	SampleProfiles bool
	// SelfCheck arms the protocol-invariant checker on every run of the
	// campaign (see RunConfig.SelfCheck). Aggregates remain
	// byte-identical; violation counts land in Matrix.TotalViolations.
	SelfCheck bool
	// Progress, if set, is invoked after each completed run with the
	// count of runs finished so far and the campaign total.
	//
	// Concurrency contract: invocations are serialized behind an
	// internal mutex — the callback is never entered concurrently and
	// may mutate shared state without extra locking. Under a parallel
	// runner the completion order of individual runs is
	// nondeterministic; only done increasing by exactly one per call,
	// from 1 to total, is guaranteed.
	Progress func(done, total int)

	// Context, when non-nil, cancels the campaign: workers finish the
	// run they are on, stop claiming new jobs, and runMatrix returns
	// with Matrix.Cancelled set and only the completed runs absorbed —
	// a Ctrl-C mid-campaign still yields exportable partial results.
	Context context.Context

	// Intercept, when non-nil, wraps every run: instead of executing
	// directly, the runner calls Intercept(job, run) and uses its
	// return value as the run's result. The callback may invoke run()
	// (and must return exactly what it returned) or substitute a
	// previously stored result for the same job — runs are pure
	// functions of the job descriptor, so a content-addressed cache
	// (sweep.Key over CampaignJob, which carries the derived seed) is
	// sound by construction. Intercept is called from worker
	// goroutines and must be safe for concurrent use. run contains its
	// own panic and returns the failed result (FailReason set), so the
	// callback sees every outcome; a panic in the callback itself is
	// contained like a run panic.
	Intercept func(job CampaignJob, run func() RunResult) RunResult
}

// CampaignJob is the canonical descriptor of one run of a campaign —
// everything that determines the run's result, and nothing that
// doesn't (worker counts are execution policy). The service layer
// hashes it (minus Seed, which keys separately) for the
// content-addressed result cache.
type CampaignJob struct {
	Experiment string          `json:"experiment"`
	Row        string          `json:"row"`
	Size       units.ByteCount `json:"size"`
	Rep        int             `json:"rep"`
	Sample     bool            `json:"sample,omitempty"`
	SelfCheck  bool            `json:"selfcheck,omitempty"`
	Seed       int64           `json:"seed"`
}

// Validate rejects a repetition count reps would silently replace.
func (o CampaignOpts) Validate() error {
	if o.Reps < 0 {
		return fmt.Errorf("experiment: reps=%d is negative", o.Reps)
	}
	return nil
}

func (o CampaignOpts) reps() int {
	if o.Reps <= 0 {
		return 5
	}
	return o.Reps
}

// matrixSalt is the historical shuffle salt of the campaign runner;
// it predates the engine and must never change (it is baked into the
// golden fixtures' execution order).
const matrixSalt = 0x5eed

// idleTestbeds keeps finished campaigns' testbeds, scrubbed, for the
// next campaign's workers: at most GOMAXPROCS of them, each holding
// only warm pools and collector buffers.
var idleTestbeds = sweep.NewIdle((*Testbed).scrub)

// matrixJob identifies one run: indices into the row, size, and
// repetition axes.
type matrixJob struct {
	row, col, rep int
}

// runMatrix executes the full grid on the generic sweep engine.
// Mirroring §3.2, the order of all (row, size, repetition) runs is
// randomized before execution; each run gets an independent testbed
// seeded deterministically from the campaign seed via
// sweep.Seed(seed, row, col, rep).
//
// The engine supplies the worker pool, panic containment, and the
// absorb-in-order contract: workers never touch cells — results fold
// into cells in the fixed shuffled-list order the serial runner uses,
// so every aggregate (sample means, CCDFs, pooled RTT/OFO samples) is
// byte-identical for any worker count.
func runMatrix(id, title string, rows []RowSpec, sizes []units.ByteCount, opts CampaignOpts) *Matrix {
	m := &Matrix{ID: id, Title: title, Sizes: sizes}
	var jobs []matrixJob
	for ri := range rows {
		cells := make([]*Cell, len(sizes))
		for ci, size := range sizes {
			cells[ci] = newCell(rows[ri].Make(size))
			cells[ci].Config.SelfCheck = cells[ci].Config.SelfCheck || opts.SelfCheck
			for rep := 0; rep < opts.reps(); rep++ {
				jobs = append(jobs, matrixJob{ri, ci, rep})
			}
		}
		m.Rows = append(m.Rows, MatrixRow{Label: rows[ri].Label, Cells: cells})
	}

	// runJob executes one job on the worker's private testbed. Each
	// worker owns one *Testbed across its whole job stream, taken from
	// idleTestbeds when an earlier campaign left one: the first job
	// builds it if not, later jobs Reset it in place (same simulator
	// and pools, rebuilt topology). Runs are byte-identical either
	// way, so exports stay invariant across worker counts and across
	// the fresh-vs-reused boundary. The engine discards the testbed
	// after a contained panic — its mid-run state is arbitrary.
	runJob := func(worker **Testbed, k int) RunResult {
		j := jobs[k]
		row := rows[j.row]
		cell := m.Rows[j.row].Cells[j.col]
		seed := sweep.Seed(opts.Seed, j.row, j.col, j.rep)
		do := func() RunResult {
			cfg := TestbedConfig{
				WiFi:              row.WiFi,
				Cell:              row.Cell,
				ServerSecondIface: cell.Config.Transport == MP4,
				SampleProfiles:    opts.SampleProfiles,
				WarmRadio:         true,
				Seed:              seed,
			}
			if *worker == nil {
				*worker = NewTestbed(cfg)
			} else {
				(*worker).Reset(cfg)
			}
			if testMatrixHook != nil {
				testMatrixHook(*worker)
			}
			return (*worker).Run(cell.Config)
		}
		if opts.Intercept == nil {
			return do()
		}
		// An interceptor must see a failed run, so its run contains the
		// panic itself, exactly as the engine would have.
		return opts.Intercept(CampaignJob{
			Experiment: id,
			Row:        row.Label,
			Size:       sizes[j.col],
			Rep:        j.rep,
			Sample:     opts.SampleProfiles,
			SelfCheck:  opts.SelfCheck,
			Seed:       seed,
		}, func() (res RunResult) {
			if err := sweep.Contain(func() { res = do() }); err != nil {
				*worker = nil
				res = failedResult(err)
			}
			return res
		})
	}

	st := sweep.RunFrom(idleTestbeds, sweep.Opts{
		Seed:     opts.Seed,
		Salt:     matrixSalt,
		Workers:  opts.Workers,
		Progress: opts.Progress,
		Context:  opts.Context,
	}, len(jobs), runJob,
		func(_ int, err error) RunResult { return failedResult(err) },
		func(k int, res RunResult) {
			j := jobs[k]
			m.Tally(res.Events, res.Violations, res.FirstViolation, res.FailReason)
			m.Rows[j.row].Cells[j.col].absorb(res)
		})
	for _, r := range m.Rows {
		for _, c := range r.Cells {
			c.pool()
		}
	}
	m.Workers, m.WallTime, m.BusyTime, m.Cancelled = st.Workers, st.WallTime, st.BusyTime, st.Cancelled
	return m
}

// failedResult is the result of a contained run failure. Only the
// error's first line is kept: the stack beneath it varies with worker
// scheduling.
func failedResult(err error) RunResult {
	var res RunResult
	res.FailReason, _, _ = strings.Cut(err.Error(), "\n")
	return res
}

// testMatrixHook, when non-nil, runs after each job's testbed is built
// and before its run starts — containment tests use it to sabotage one
// specific run (by testbed seed) and prove the campaign survives. It
// is written only before a campaign starts.
var testMatrixHook func(*Testbed)
