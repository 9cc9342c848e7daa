package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// profiled is one in-process computation measured under the CPU
// profiler: its leaf samples, wall time, simulator events and
// allocator activity.
type profiled struct {
	leaf    map[string]float64
	wall    float64
	events  uint64
	mallocs uint64
	gcs     uint32
	heapSys uint64
}

// underProfile runs f under a runtime/pprof CPU profile. The profile
// attributes self time to layers from outside: leaf frames are folded
// by package, and no source in the program under test is touched.
func underProfile(f func() (uint64, error)) (profiled, error) {
	var p profiled
	var buf bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return p, err
	}
	t0 := time.Now()
	events, err := f()
	p.wall = time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	if err != nil {
		return p, err
	}
	runtime.ReadMemStats(&m1)
	p.events, p.mallocs, p.gcs, p.heapSys = events, m1.Mallocs-m0.Mallocs, m1.NumGC-m0.NumGC, m1.HeapSys
	p.leaf, err = leafSamples(buf.Bytes())
	return p, err
}

// tracedRun is the traced counterpart of the timed passes: rounds of
// one untraced and one traced pass, alternating, until the run's
// seconds are spent. The traced pass records a span around every call
// the harness makes into a layer and runs under a CPU profile; the
// untraced one before it is the base of bench.trace_overhead_ratio. On serve the
// simulation happens inside the daemon, which cannot be profiled from
// outside, so the profile is taken over the direct in-process run of
// the same specs — what the daemon's cold phase computes, minus store
// and HTTP.
func tracedRun(j job, o childOpts, first passOut, rep *childReport) error {
	tr := newTracer()
	sj, isServe := j.(*serveJob)
	var (
		plainWall, tracedWall []float64
		rounds                []profiled
		pooled                = map[string]float64{}
		tracedSame            = true
	)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(rounds) < 3 || time.Now().Before(deadline) {
		out, s, err := timedPass(j, nil)
		if err != nil {
			return fmt.Errorf("untraced pass: %w", err)
		}
		rep.absorb(out)
		plainWall = append(plainWall, s.WallS)

		tr.setPass(len(rounds) + 1)
		var p profiled
		if isServe {
			if out, s, err = timedPass(j, tr); err != nil {
				return fmt.Errorf("traced pass: %w", err)
			}
			if p, err = underProfile(sj.directAll); err != nil {
				return fmt.Errorf("profiled direct run: %w", err)
			}
			tracedWall = append(tracedWall, s.WallS)
		} else {
			p, err = underProfile(func() (uint64, error) {
				var err error
				out, err = j.pass(tr)
				return out.events, err
			})
			if err != nil {
				return fmt.Errorf("traced pass: %w", err)
			}
			tracedWall = append(tracedWall, p.wall)
		}
		rep.absorb(out)
		tracedSame = tracedSame && out.exportSHA == first.exportSHA
		rounds = append(rounds, p)
		for fn, v := range p.leaf {
			pooled[fn] += v
		}
	}

	rep.check("traced passes export the same bytes", tracedSame, "a traced pass exported different bytes than the warm-up pass")

	spans := tr.finish()
	rep.SpanFile = filepath.Join(filepath.Dir(o.env.tmp), "trace-"+o.workload+".ndjson")
	if err := writeSpans(rep.SpanFile, spans); err != nil {
		return err
	}

	// Shares come from the samples of all rounds pooled (so they sum
	// to 1); the quartiles are over the rounds' own shares.
	rep.Layer = map[string]summary{}
	perRound := map[string][]float64{}
	var events, perSec, mallocs, gcs, heap []float64
	for _, p := range rounds {
		for pkg, share := range cpuShares(p.leaf) {
			perRound[pkg] = append(perRound[pkg], share)
		}
		events = append(events, float64(p.events))
		mallocs = append(mallocs, float64(p.mallocs)/float64(max(p.events, 1)))
		gcs = append(gcs, float64(p.gcs))
		heap = append(heap, float64(p.heapSys)/1e6)
		perSec = append(perSec, float64(p.events)/p.wall)
	}
	for pkg, share := range cpuShares(pooled) {
		s := summarize(perRound[pkg])
		s.Median = share
		rep.Layer[pkg+".cpu_share"] = s
	}
	if !isServe {
		// Host time per simulated event is taken from the untraced
		// passes; the profiled ones pay for the tracer.
		perSec = perSec[:0]
		for _, w := range plainWall {
			perSec = append(perSec, events[0]/w)
		}
	}
	rep.SimEvents = uint64(events[0])
	rep.Layer["sim.events"] = summarize(events)
	rep.Layer["sim.events_per_s"] = summarize(perSec)
	rep.Layer["runtime.mallocs_per_event"] = summarize(mallocs)
	rep.Layer["runtime.gc_cycles"] = summarize(gcs)
	rep.Layer["runtime.heap_peak_mb"] = summarize([]float64{maxOf(heap)})
	// Each traced pass is compared with the untraced pass just before
	// it, so a slow minute on the host slows both sides of a ratio.
	ratios := make([]float64, len(tracedWall))
	for i := range ratios {
		ratios[i] = tracedWall[i] / plainWall[i]
	}
	rep.Layer["bench.trace_overhead_ratio"] = summarize(ratios)
	return nil
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = max(m, x)
	}
	return m
}
