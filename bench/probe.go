package main

import (
	"fmt"
	"runtime"
	"time"
)

// The probes are a ladder, one rung per package:
//
//	sim ⊂ netem ⊂ tcp ⊂ mptcp ⊂ experiment | load ⊂ sweep ⊂ mptcpd
//
// Each rung drives one layer's public API from outside, with every
// lower layer underneath doing real work, so two adjacent rungs at
// matched work differ by the upper layer's own cost. Nothing here
// depends on the workload being traced; it does depend on the seed
// wherever a rung runs a simulation.

type probeEnv struct {
	seed int64
	jobEnv
}

// probe is one rung, or one part of one: a function that measures a
// few metrics once. The ladder repeats it and reports each metric's
// median and quartiles over the repeats.
type probe struct {
	name    string
	repeats int
	run     func(env *probeEnv) (map[string]float64, error)
}

var ladder = []probe{
	{"sim", 5, probeSim},
	{"netem", 5, probeNetem},
	{"seg", 5, probeSeg},
	{"tcp.transfer", 5, probeTCPTransfer},
	{"tcp.conn", 5, probeTCPConn},
	{"mptcp.paths", 3, probeMPTCPPaths},
	{"mptcp.conn", 5, probeMPTCPConn},
	{"mptcp.reorder", 5, probeReorder},
	{"cc", 5, probeCC},
	{"pathmodel", 5, probePathmodel},
	{"experiment.testbed", 5, probeTestbed},
	{"experiment.campaign", 1, probeCampaign},
	{"experiment.result", 5, probeResultCodec},
	{"load.clients", 3, probeLoadClients},
	{"load.arena", 3, probeLoadArena},
	{"check", 3, probeCheck},
	{"sweep.engine", 5, probeSweepEngine},
	{"sweep.store", 3, probeSweepStore},
	{"mptcpd.serve", 2, probeServe},
	{"mptcpd.surface", 3, probeDaemonSurface},
}

// runLadder runs every rung and summarizes each metric over the
// rung's repeats.
func runLadder(env *probeEnv) (map[string]summary, error) {
	out := map[string]summary{}
	for _, p := range ladder {
		samples := map[string][]float64{}
		for r := 0; r < p.repeats; r++ {
			runtime.GC()
			vals, err := p.run(env)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			for k, v := range vals {
				samples[k] = append(samples[k], v)
			}
		}
		for k, v := range samples {
			if _, dup := out[k]; dup {
				return nil, fmt.Errorf("probe %s: metric %s measured twice", p.name, k)
			}
			out[k] = summarize(v)
		}
	}
	return out, nil
}

// nsPerOp times n calls of f.
func nsPerOp(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// measured is the host cost of one call of f.
type measured struct {
	seconds float64
	mallocs float64
}

// measure times f once and counts the heap objects it allocated.
func measure(f func()) measured {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return measured{seconds: d, mallocs: float64(m1.Mallocs - m0.Mallocs)}
}
