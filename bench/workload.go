package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"mptcplab/internal/experiment"
	"mptcplab/internal/load"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// A job is one workload's fixed job list, generated once from the
// seed: the program under test only ever sees the specs and configs in
// it. pass runs the whole list once; every pass of a job does
// identical work, so pass-level metrics are medians over passes.
type job interface {
	// describe renders the job list canonically — what the seed
	// plumbing test compares between invocations.
	describe() string
	// pass executes the job list once. tr is nil on timed passes.
	pass(tr *tracer) (passOut, error)
	// verify runs the output checks that need a second computation of
	// the same results by another route (other worker count, in
	// process instead of through the daemon). It runs after the timed
	// passes so that neither setup_s nor wall_s pays for it.
	verify(first passOut) []checkResult
	close()
}

// passOut is what one pass produced.
type passOut struct {
	// exports holds the artifact bytes of the pass, one entry per
	// export in a fixed order; exportSHA is their digest.
	exports   [][]byte
	exportSHA string
	// events is the number of simulator events the pass processed
	// (zero on serve, whose simulation runs inside the daemon).
	events uint64
	// attempted and failed count operations: simulation runs, HTTP
	// requests, export comparisons.
	attempted, failed int
	// remote is set by serve: CPU seconds and peak RSS of the daemon
	// processes, which are the process under test there.
	remote *remoteUsage
	// phases is set by serve: its cold, warm and reopen phases, which
	// the ladder reports as per-layer metrics.
	phases *servePhases
	// firstFailure describes the first failed operation, if any.
	firstFailure string
}

type remoteUsage struct {
	cpuS  float64
	rssKB int64
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (p *passOut) setExports(exports ...[]byte) {
	p.exports = exports
	h := sha256.New()
	for _, e := range exports {
		fmt.Fprintf(h, "%d:", len(e))
		h.Write(e)
	}
	p.exportSHA = hex.EncodeToString(h.Sum(nil))
}

func (p *passOut) fail(format string, args ...any) { p.failN(1, format, args...) }

// failN records n failed operations with one description.
func (p *passOut) failN(n int, format string, args ...any) {
	p.failed += n
	if p.firstFailure == "" {
		p.firstFailure = fmt.Sprintf(format, args...)
	}
}

// deriveSeed maps the workload seed to the seed of one campaign in a
// job list (splitmix64 over seed, workload and index), so different
// -seed values give every campaign a different seed and equal values
// give equal ones. The mixer is the harness's own copy, not
// sim.Splitmix64: the job lists must not change when the program under
// test does.
func deriveSeed(seed int64, workload string, idx int) int64 {
	x := uint64(seed)
	for _, c := range []byte(workload) {
		x = splitmix64(x ^ uint64(c))
	}
	return int64(splitmix64(x ^ uint64(idx)))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobEnv is what a job needs from its surroundings.
type jobEnv struct {
	// small cuts every job list to a few runs, for tests.
	small bool
	// mptcpd is the path of the daemon binary (serve and the mptcpd
	// probes); tmp is a directory for per-pass stores.
	mptcpd string
	tmp    string
}

func newJob(workload string, seed int64, env jobEnv) (job, error) {
	switch workload {
	case "bulk":
		return newBulkJob(seed, env.small), nil
	case "campaign":
		return newCampaignJob(seed, env.small), nil
	case "fleet":
		return newFleetJob(seed, env.small), nil
	case "serve":
		return newServeJob(seed, env)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// campaignSpec is one experiment campaign of a job list.
type campaignSpec struct {
	Name string
	Reps int
	Seed int64
	// Size, when non-zero, runs the Fig 11 backlog campaign at that
	// transfer size instead of the registry's 512 MB.
	Size units.ByteCount
}

func (c campaignSpec) String() string {
	return fmt.Sprintf("%s reps=%d seed=%d size=%d", c.Name, c.Reps, c.Seed, int64(c.Size))
}

// run executes the campaign in process. With a tracer every run is
// wrapped in a span through CampaignOpts.Intercept; without one the
// option stays nil and the runner's direct path is measured.
func (c campaignSpec) run(workers int, tr *tracer, parent int) (*experiment.Matrix, error) {
	opts := experiment.CampaignOpts{
		Reps: c.Reps, Seed: c.Seed, Workers: workers, SampleProfiles: true,
	}
	sp := tr.begin(parent, "experiment.campaign:"+c.Name)
	defer tr.end(sp)
	if tr != nil {
		opts.Intercept = func(_ experiment.CampaignJob, run func() experiment.RunResult) experiment.RunResult {
			id := tr.begin(sp, "experiment.run")
			defer tr.end(id)
			return run()
		}
	}
	if c.Size > 0 {
		return experiment.Backlog(c.Size, opts), nil
	}
	return experiment.NewCampaign(c.Name, opts)
}

// matrixJob is the shared shape of bulk and campaign: a list of
// experiment campaigns run in process, then exported.
type matrixJob struct {
	specs   []campaignSpec
	workers int
}

func (j *matrixJob) describe() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "workers=%d\n", j.workers)
	for _, s := range j.specs {
		fmt.Fprintln(&b, s)
	}
	return b.String()
}

func (j *matrixJob) pass(tr *tracer) (passOut, error) {
	return j.passWith(j.workers, tr)
}

func (j *matrixJob) passWith(workers int, tr *tracer) (passOut, error) {
	var out passOut
	root := tr.begin(0, "pass")
	defer tr.end(root)
	var ms []*experiment.Matrix
	for _, spec := range j.specs {
		m, err := spec.run(workers, tr, root)
		if err != nil {
			return out, err
		}
		ms = append(ms, m)
		out.events += m.TotalEvents
		for _, row := range m.Rows {
			for _, c := range row.Cells {
				out.attempted += c.Times.N() + c.Failures
				if c.Failures > 0 {
					out.failN(c.Failures, "%s %s: %d of %d runs did not complete (%s)",
						m.ID, c.Config.Describe(), c.Failures, c.Times.N()+c.Failures, m.FirstFailure)
				}
			}
		}
		if m.TotalViolations > 0 {
			out.fail("%s: %d invariant violations, first: %s", m.ID, m.TotalViolations, m.FirstViolation)
		}
	}
	sp := tr.begin(root, "experiment.export")
	var csv, js bytes.Buffer
	if err := experiment.WriteCSV(&csv, ms...); err != nil {
		return out, err
	}
	if err := experiment.WriteJSON(&js, ms...); err != nil {
		return out, err
	}
	tr.end(sp)
	out.setExports(csv.Bytes(), js.Bytes())
	return out, nil
}

func (j *matrixJob) verify(first passOut) []checkResult {
	if j.workers == 1 {
		return nil
	}
	// Worker invariance: the same job list on one worker must export
	// the same bytes as on nproc.
	serial, err := j.passWith(1, nil)
	res := checkResult{Name: "exports identical at workers=1 and workers=nproc", OK: err == nil && serial.exportSHA == first.exportSHA}
	if err != nil {
		res.Detail = err.Error()
	} else if !res.OK {
		res.Detail = fmt.Sprintf("workers=1 %s, workers=%d %s", serial.exportSHA, j.workers, first.exportSHA)
	}
	return []checkResult{res}
}

func (j *matrixJob) close() {}

// newBulkJob is the §4.2-4.3 regime: the Fig 11 backlog matrix (MP-2
// and MP-4, coupled and reno) and the Fig 12/13 latency matrix (three
// carriers, 4-32 MB), serially on one worker.
func newBulkJob(seed int64, small bool) *matrixJob {
	backlog, backlogReps, latencyReps := 32*units.MB, 2, 3
	if small {
		backlog, backlogReps, latencyReps = 2*units.MB, 1, 1
	}
	return &matrixJob{workers: 1, specs: []campaignSpec{
		{Name: "fig11", Reps: backlogReps, Seed: deriveSeed(seed, "bulk", 0), Size: units.ByteCount(backlog)},
		{Name: "fig12", Reps: latencyReps, Seed: deriveSeed(seed, "bulk", 1)},
	}}
}

// newCampaignJob is how paperbench is used for §4.1: the four
// small-flow campaigns (8 KB-16 MB, the lossy coffee-shop WiFi
// included) fanned out over nproc workers.
func newCampaignJob(seed int64, small bool) *matrixJob {
	reps := map[string]int{"fig2": 5, "fig4": 10, "fig6": 10, "fig8": 10}
	if small {
		reps = map[string]int{"fig8": 2}
	}
	j := &matrixJob{workers: runtime.NumCPU()}
	for i, name := range []string{"fig2", "fig4", "fig6", "fig8"} {
		if reps[name] == 0 {
			continue
		}
		j.specs = append(j.specs, campaignSpec{Name: name, Reps: reps[name], Seed: deriveSeed(seed, "campaign", i)})
	}
	return j
}

// fleetJob is one load sweep: fleet sizes x arrival rates on a single
// worker, each point one world with every client in it.
type fleetJob struct {
	opts load.SweepOpts
}

func newFleetJob(seed int64, small bool) *fleetJob {
	o := load.SweepOpts{
		Base: load.Config{
			Sizes:      load.WebMix(),
			Transports: load.TransportMix{WiFi: 0.3, Cell: 0.2, MPTCP: 0.5},
			Duration:   30 * sim.Second,
			Drain:      15 * sim.Second,
		},
		Clients: []int{100, 1000, 5000},
		Rates:   []float64{5, 40},
		Reps:    1,
		Seed:    deriveSeed(seed, "fleet", 0),
		Workers: 1,
	}
	if small {
		o.Base.Duration, o.Base.Drain = 3*sim.Second, 3*sim.Second
		o.Clients, o.Rates = []int{20}, []float64{5}
	}
	return &fleetJob{opts: o}
}

func (j *fleetJob) describe() string {
	o := j.opts
	return fmt.Sprintf("base=%s clients=%v rates=%v reps=%d seed=%d workers=%d\n",
		o.Base.ReplayToken(), o.Clients, o.Rates, o.Reps, o.Seed, o.Workers)
}

func (j *fleetJob) pass(tr *tracer) (passOut, error) {
	var out passOut
	root := tr.begin(0, "pass")
	defer tr.end(root)

	sp := tr.begin(root, "load.RunSweep")
	sw := load.RunSweep(j.opts)
	tr.end(sp)
	out.events = sw.TotalEvents
	for _, p := range sw.Points {
		for _, res := range p.Runs {
			out.attempted++
			// Incomplete flows inside a saturated run are modelled
			// congestion, not failures; a killed or contained run, or
			// an invariant violation, is one.
			switch {
			case res == nil:
				out.fail("fleet run at clients=%d rate=%g never executed", p.Clients, p.Rate)
			case res.Failed:
				out.fail("fleet run at clients=%d rate=%g failed: %s", p.Clients, p.Rate, res.FailReason)
			case res.Violations > 0:
				out.fail("fleet run at clients=%d rate=%g: %s", p.Clients, p.Rate, res.FirstViolation)
			}
		}
	}

	sp = tr.begin(root, "load.export")
	var csv, js bytes.Buffer
	if err := sw.WriteCSV(&csv, j.opts.Base); err != nil {
		return out, err
	}
	if err := sw.WriteJSON(&js, j.opts.Base); err != nil {
		return out, err
	}
	tr.end(sp)
	out.setExports(csv.Bytes(), js.Bytes())
	return out, nil
}

func (j *fleetJob) verify(passOut) []checkResult { return nil }
func (j *fleetJob) close()                       {}
