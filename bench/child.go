package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// processStart is taken at package initialisation, as close to the
// exec as the harness can observe: setup_s runs from here to the end
// of the warm-up pass.
var processStart = time.Now()

// passSample is one timed pass.
type passSample struct {
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
}

// childReport is what a child process tells the orchestrator, as one
// JSON object on its standard output.
type childReport struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	SetupS   float64 `json:"setup_s"`
	// JobSHA digests the generated job list; equal seeds give equal
	// digests.
	JobSHA    string       `json:"job_sha256"`
	Passes    []passSample `json:"passes,omitempty"`
	PeakRSSMB float64      `json:"peak_rss_mb"`
	// SimEvents is the simulator events of one pass (identical on
	// every pass, or the cross-pass check fails).
	SimEvents    uint64        `json:"sim_events"`
	ExportSHA    string        `json:"export_sha256"`
	Attempted    int           `json:"attempted"`
	Failed       int           `json:"failed"`
	FirstFailure string        `json:"first_failure,omitempty"`
	Checks       []checkResult `json:"checks,omitempty"`
	// Layer holds the per-layer metrics of a traced run.
	Layer    map[string]summary `json:"layer,omitempty"`
	SpanFile string             `json:"span_file,omitempty"`

	// peakRemoteKB is the largest peak RSS of any daemon process the
	// passes drove (serve).
	peakRemoteKB int64
}

func (r *childReport) absorb(out passOut) {
	r.Attempted += out.attempted
	r.Failed += out.failed
	if r.FirstFailure == "" {
		r.FirstFailure = out.firstFailure
	}
	if out.remote != nil {
		r.peakRemoteKB = max(r.peakRemoteKB, out.remote.rssKB)
	}
}

func (r *childReport) check(name string, ok bool, detail string) {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = detail
	}
	r.Checks = append(r.Checks, c)
}

// selfCPU is the user+system CPU time this process has used so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// selfPeakRSSMB is this process's peak resident set (Linux reports
// ru_maxrss in KiB).
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// timedPass runs one pass and measures it: wall from the harness
// clock, CPU from this process's rusage or, when the pass drove
// another process, from that process's.
func timedPass(j job, tr *tracer) (passOut, passSample, error) {
	// Collect first, as testing.B does before a timed loop: every pass
	// then starts from the same heap, so where the collector's cycles
	// fall inside a pass — and with them the peak heap — repeats.
	runtime.GC()
	cpu0, t0 := selfCPU(), time.Now()
	out, err := j.pass(tr)
	s := passSample{WallS: time.Since(t0).Seconds(), CPUS: selfCPU() - cpu0}
	if out.remote != nil {
		s.CPUS = out.remote.cpuS
	}
	return out, s, err
}

type childOpts struct {
	mode     string // "setup", "run" or "ladder"
	workload string
	seed     int64
	seconds  float64
	trace    bool
	env      jobEnv
}

// runChild is the body of a re-exec'd child: one workload in a process
// of its own, so that every set-up starts from a cold heap and the
// peak RSS belongs to this workload alone.
func runChild(o childOpts) error {
	// A daemon must not outlive an interrupted harness.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killDaemons()
		os.Exit(130)
	}()

	rep := childReport{Workload: o.workload, Seed: o.seed}
	if o.mode == "ladder" {
		var err error
		if rep.Layer, err = runLadder(&probeEnv{seed: o.seed, jobEnv: o.env}); err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(&rep)
	}
	j, err := newJob(o.workload, o.seed, o.env)
	if err != nil {
		return err
	}
	defer j.close()
	sum := sha256.Sum256([]byte(j.describe()))
	rep.JobSHA = hex.EncodeToString(sum[:])

	// Set-up ends with an untimed warm-up pass: pools, heap and page
	// cache reach their working size, and (serve) the daemon has
	// booted once on an empty store.
	first, _, err := timedPass(j, nil)
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	rep.SetupS = time.Since(processStart).Seconds()
	rep.absorb(first)
	rep.SimEvents, rep.ExportSHA = first.events, first.exportSHA

	if o.mode == "run" && !o.trace {
		exportsSame, eventsSame := true, true
		deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
		for len(rep.Passes) < minPasses || time.Now().Before(deadline) {
			out, s, err := timedPass(j, nil)
			if err != nil {
				return fmt.Errorf("pass %d: %w", len(rep.Passes)+1, err)
			}
			rep.Passes = append(rep.Passes, s)
			rep.absorb(out)
			exportsSame = exportsSame && out.exportSHA == first.exportSHA
			eventsSame = eventsSame && out.events == first.events
		}
		rep.check("exports byte-identical across passes", exportsSame, "a pass exported different bytes than the warm-up pass")
		if first.events > 0 { // serve simulates inside the daemon and reports none
			rep.check("sim.events identical across passes", eventsSame, "a pass processed a different number of simulator events")
		}
		rep.Checks = append(rep.Checks, j.verify(first)...)
	}
	if o.mode == "run" && o.trace {
		if err := tracedRun(j, o, first, &rep); err != nil {
			return err
		}
	}

	rep.PeakRSSMB = selfPeakRSSMB()
	if rep.peakRemoteKB > 0 {
		rep.PeakRSSMB = float64(rep.peakRemoteKB) * 1024 / 1e6
	}
	if rep.Layer != nil {
		rep.Layer["bench.peak_rss_mb"] = summarize([]float64{rep.PeakRSSMB})
	}
	for _, c := range rep.Checks {
		// An output check that fails is a failed operation too.
		rep.Attempted++
		if !c.OK {
			rep.Failed++
			if rep.FirstFailure == "" {
				rep.FirstFailure = c.Name + ": " + c.Detail
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(&rep)
}
