package main

import (
	"math"
	"testing"
	"time"
)

//go:noinline
func spinForProfile(d time.Duration) uint64 {
	x := uint64(1)
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestLeafSamplesDecodesARealProfile takes a CPU profile of a function
// that only spins and requires the decoder to find that function as
// the leaf of most samples.
func TestLeafSamplesDecodesARealProfile(t *testing.T) {
	p, err := underProfile(func() (uint64, error) {
		return spinForProfile(300 * time.Millisecond), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range p.leaf {
		total += v
	}
	if total == 0 {
		t.Skip("the profiler delivered no samples on this host")
	}
	const want = "mptcplab/bench.spinForProfile"
	if share := p.leaf[want] / total; share < 0.6 {
		t.Errorf("%s holds %.0f%% of the samples, want most; leaves: %v", want, share*100, p.leaf)
	}
	if layerOf(want) != "other" {
		t.Errorf("the harness's own frames belong to other, not %s", layerOf(want))
	}
}

func TestLeafSamplesRejectsGarbage(t *testing.T) {
	if _, err := leafSamples([]byte("not a gzip stream")); err == nil {
		t.Errorf("garbage decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mptcplab/internal/tcp.(*Endpoint).pipe":                         "tcp",
		"mptcplab/internal/sim.(*Simulator).pop":                         "sim",
		"mptcplab/internal/netem.NewLink.func1":                          "netem",
		"mptcplab/internal/netem.(*ring[go.shape.struct { x int }]).pop": "netem",
		"mptcplab/internal/sweep/client.(*Client).Do":                    "sweep",
		"mptcplab/internal/sweep.Run[go.shape.int,go.shape.int]":         "sweep",
		"mptcplab/internal/units.BitRate.TransmitTime":                   "other",
		"mptcplab/internal/chaos.Contain":                                "other",
		"runtime.mallocgc":                                               "runtime",
		"runtime.memmove":                                                "runtime",
		"runtime.gcBgMarkWorker":                                         "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                   "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                         "runtime",
		"aeshashbody":                                                    "runtime",
		"gcWriteBarrier":                                                 "runtime",
		"encoding/json.(*encodeState).marshal":                           "other",
		"slices.partitionOrdered[go.shape.float64]":                      "other",
		"mptcplab/bench.(*matrixJob).pass":                               "other",
		"?":                                                              "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	shares := cpuShares(map[string]float64{
		"mptcplab/internal/tcp.(*Endpoint).pipe": 30,
		"mptcplab/internal/sim.(*Simulator).pop": 20,
		"runtime.mallocgc":                       40,
		"encoding/json.Marshal":                  10,
	})
	if len(shares) != len(cpuSharePkgs) {
		t.Errorf("%d shares, want one per layer (%d)", len(shares), len(cpuSharePkgs))
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if shares["tcp"] != 0.3 || shares["runtime"] != 0.4 || shares["other"] != 0.1 || shares["load"] != 0 {
		t.Errorf("shares = %v", shares)
	}
	for pkg, v := range cpuShares(nil) {
		if v != 0 {
			t.Errorf("empty profile: %s share %g", pkg, v)
		}
	}
}
