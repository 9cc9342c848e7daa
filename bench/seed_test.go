package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDaemon builds cmd/mptcpd for the tests that drive the real
// binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the mptcpd binary")
	}
	bin := filepath.Join(t.TempDir(), "mptcpd")
	cmd := exec.Command("go", "build", "-o", bin, "mptcplab/cmd/mptcpd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build mptcplab/cmd/mptcpd: %v\n%s", err, out)
	}
	return bin
}

// smallPass builds the workload's cut-down job list from the seed and
// runs it once, output checks included.
func smallPass(t *testing.T, workload string, seed int64, env jobEnv) (string, passOut) {
	t.Helper()
	env.small = true
	j, err := newJob(workload, seed, env)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	out, err := j.pass(nil)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Errorf("%s seed %d: %d failed of %d operations: %s", workload, seed, out.failed, out.attempted, out.firstFailure)
	}
	for _, c := range j.verify(out) {
		if !c.OK {
			t.Errorf("%s seed %d: check %q failed: %s", workload, seed, c.Name, c.Detail)
		}
	}
	return j.describe(), out
}

// TestSeedPlumbing: the same seed gives the same job list, the same
// simulator events and the same exports on a second invocation; a
// different seed gives every campaign another derived seed, and every
// output check still passes on it (a claim must later hold on a seed
// nobody tuned for).
func TestSeedPlumbing(t *testing.T) {
	env := jobEnv{tmp: t.TempDir()}
	for _, workload := range workloadNames() {
		t.Run(workload, func(t *testing.T) {
			if workload == "serve" {
				env.mptcpd = buildDaemon(t)
			}
			jobsA, a := smallPass(t, workload, 7, env)
			jobsB, b := smallPass(t, workload, 7, env)
			if jobsA != jobsB {
				t.Errorf("seed 7 gave two job lists:\n%s\n%s", jobsA, jobsB)
			}
			if a.events != b.events || a.exportSHA != b.exportSHA {
				t.Errorf("seed 7 twice: events %d and %d, exports %.12s and %.12s", a.events, b.events, a.exportSHA, b.exportSHA)
			}
			if workload != "serve" && a.events == 0 {
				t.Errorf("the pass reported no simulator events")
			}

			jobsC, c := smallPass(t, workload, 8, env)
			if jobsC == jobsA {
				t.Errorf("seeds 7 and 8 gave the same job list:\n%s", jobsA)
			}
			if c.exportSHA == a.exportSHA {
				t.Errorf("seeds 7 and 8 exported the same bytes")
			}
		})
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]string{}
	for _, seed := range []int64{0, 1, 2, defaultSeed} {
		for _, w := range workloadNames() {
			for idx := 0; idx < 4; idx++ {
				s := deriveSeed(seed, w, idx)
				if s != deriveSeed(seed, w, idx) {
					t.Fatalf("deriveSeed is not a function of its arguments")
				}
				at := fmt.Sprintf("seed %d %s/%d", seed, w, idx)
				if prev, dup := seen[s]; dup {
					t.Errorf("derived seed %d appears for %s and for %s", s, prev, at)
				}
				seen[s] = at
			}
		}
	}
}

// TestFailedBootIsOneFailedOperation: a daemon that cannot start is a
// clear error and one failed operation, never a hang.
func TestFailedBootIsOneFailedOperation(t *testing.T) {
	dud, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false(1) to stand in for a daemon that exits at once")
	}
	env := jobEnv{small: true, tmp: t.TempDir(), mptcpd: dud}
	j, err := newServeJob(1, env)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	out, err := j.pass(nil)
	if err == nil || !strings.Contains(err.Error(), "exited during boot") {
		t.Errorf("pass over a daemon that exits at once: err = %v", err)
	}
	if out.failed != 1 || out.attempted != 1 {
		t.Errorf("%d failed of %d operations, want 1 of 1", out.failed, out.attempted)
	}
}

func TestAAVerdicts(t *testing.T) {
	mk := func(wall, setup float64, sha string) *report {
		return &report{Workloads: []workloadReport{{
			Workload: "bulk", ExportSHA: sha, SimEvents: 10,
			Metrics: map[string]summary{
				"wall_s":  {N: 9, Median: wall},
				"cpu_s":   {N: 9, Median: wall},
				"setup_s": {N: 3, Median: setup},
			},
		}}}
	}
	wallBound, _ := findMetric(endToEndDefs, "wall_s")
	var buf bytes.Buffer
	if !printAA(&buf, mk(1, 1, "x"), mk(1+wallBound.Bound*0.9, 1, "x")) {
		t.Errorf("a difference inside the bound was called a breach:\n%s", buf.String())
	}
	buf.Reset()
	if printAA(&buf, mk(1, 1, "x"), mk(1+wallBound.Bound*1.1, 1, "x")) || !strings.Contains(buf.String(), "BREACH") {
		t.Errorf("a difference beyond the bound passed:\n%s", buf.String())
	}
	buf.Reset()
	if printAA(&buf, mk(1, 1, "x"), mk(1, 1, "y")) || !strings.Contains(buf.String(), "DIFFERS") {
		t.Errorf("differing exports passed:\n%s", buf.String())
	}
}
