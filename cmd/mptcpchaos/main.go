// Command mptcpchaos runs single-flow chaos experiments: a named or
// custom fault schedule — link flaps, progressive degradation ramps,
// handover storms, signal fades, mid-transfer outages — applied to a
// deterministic testbed, with a resilience report per transport.
//
//	mptcpchaos -list
//	mptcpchaos -schedule outage -size 8MB -seed 61
//	mptcpchaos -schedule 'flap:path=wifi;at=2s;dur=500ms;every=2s;n=5' -transport mp2
//
// The default mode compares MP-2 against single-path WiFi under the
// same schedule and seed — the paper's §6 resilience claim: MPTCP's
// time-to-recover is bounded by reinjection onto the surviving path,
// while single-path TCP sits in RTO backoff until the fault clears.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mptcplab/internal/chaos"
	"mptcplab/internal/cli"
	"mptcplab/internal/experiment"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var run = cli.Main("mptcpchaos", parse, compare)

// spec is one invocation: the testbed and the faulted download, run
// once per transport (two of them in the default compare mode).
type spec struct {
	list       bool
	tb         experiment.TestbedConfig
	rc         experiment.RunConfig
	transports []experiment.Transport
}

// parse is the flag → spec seam (internal/cli): it runs nothing.
func parse(args []string, stdout io.Writer) (spec, error) {
	// compare mode is the paper's §6 contrast under the same faults.
	contrast := []experiment.Transport{experiment.MP2, experiment.SPWiFi}
	s := spec{
		tb:         experiment.TestbedConfig{WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(), WarmRadio: true},
		rc:         experiment.RunConfig{Size: 8 * units.MB},
		transports: contrast,
	}
	s.rc.Chaos, _ = chaos.Named("outage")
	fs := flag.NewFlagSet("mptcpchaos", flag.ContinueOnError)
	cli.Var(fs, "schedule", "fault schedule: preset name or spec like 'flap:path=wifi;at=2s;dur=500ms;every=2s;n=5' (default outage; see -list)", &s.rc.Chaos, chaos.Parse)
	fs.BoolVar(&s.list, "list", false, "list the named schedules with their specs and exit")
	fs.Func("transport", "wifi | cell | mp2 | mp4 | compare: mp2 vs wifi under the same faults (default compare)", func(v string) error {
		if strings.EqualFold(v, "compare") {
			s.transports = contrast
			return nil
		}
		tr, err := experiment.ParseTransport(v)
		s.transports = []experiment.Transport{tr}
		return err
	})
	cli.Var(fs, "size", "download size (default 8MB)", &s.rc.Size, units.ParseByteCount)
	cli.Profiles(fs, &s.tb.WiFi, &s.tb.Cell)
	cli.Scheduler(fs, "scheduler", &s.rc.Scheduler)
	fs.Int64Var(&s.tb.Seed, "seed", 61, "run seed (same seed + schedule => byte-identical behavior)")
	fs.DurationVar(&s.rc.Deadline, "deadline", 30*time.Second, "wall-clock budget per run; over-budget runs are killed, not hung (0 = none)")
	fs.BoolVar(&s.rc.SelfCheck, "selfcheck", true, "arm the protocol invariant checker")
	if err := cli.Parse(fs, args, stdout); err != nil {
		return s, err
	}
	if s.rc.Chaos.Empty() {
		return s, errors.New("empty -schedule; see -list")
	}
	return s, s.rc.Validate()
}

func listSchedules(w io.Writer) {
	fmt.Fprintln(w, "named schedules (each expands to the spec shown; override fields with 'name:key=val;...'):")
	for _, name := range chaos.PresetNames() {
		sched, _ := chaos.Named(name) // a preset name is one Named knows
		fmt.Fprintf(w, "  %-8s %s\n", name, sched.Spec())
	}
	fmt.Fprintln(w, "compose with '+': e.g. 'flap+fade:path=cell;depth=0.5'")
}

// compare runs the spec's download under each transport and prints the
// resilience report; a failed run or a protocol violation is an error.
func compare(s spec, w, _ io.Writer) error {
	if s.list {
		listSchedules(w)
		return nil
	}
	fmt.Fprintf(w, "schedule: %s\nseed:     %d, size %s, wifi=%s, cell=%s\n\n",
		s.rc.Chaos.Spec(), s.tb.Seed, s.rc.Size, s.tb.WiFi.Name, s.tb.Cell.Name)

	results := make([]experiment.RunResult, len(s.transports))
	for i, tr := range s.transports {
		s.tb.ServerSecondIface = tr == experiment.MP4
		s.rc.Transport = tr
		results[i] = experiment.NewTestbed(s.tb).Run(s.rc)
		printRun(w, tr, results[i])
	}
	if len(results) == 2 {
		printContrast(w, results[0], results[1])
	}
	for i, res := range results {
		if res.FailReason != "" {
			return fmt.Errorf("%s run failed: %s", s.transports[i], res.FailReason)
		}
		if res.Violations > 0 {
			return fmt.Errorf("%s run: %d protocol violations, first: %s",
				s.transports[i], res.Violations, res.FirstViolation)
		}
	}
	return nil
}

func printRun(w io.Writer, tr experiment.Transport, res experiment.RunResult) {
	fmt.Fprintf(w, "%s:\n", tr)
	if res.FailReason != "" {
		fmt.Fprintf(w, "  RUN FAILED: %s\n\n", res.FailReason)
		return
	}
	state := "completed"
	if !res.Completed {
		state = "DID NOT COMPLETE"
	}
	goodput := 0.0
	if res.DownloadTime > 0 {
		bytes := float64(res.WiFiBytesSent + res.CellBytesSent)
		goodput = 8 * bytes / res.DownloadTime.Seconds() / float64(units.Mbps)
	}
	fmt.Fprintf(w, "  download:   %s in %.3fs (%.2f Mbps), %d subflows\n",
		state, res.DownloadTime.Seconds(), goodput, res.Subflows)
	if r := res.Resilience; r != nil {
		fmt.Fprintf(w, "  verdict:    %s (%d ok, %d late, %d incomplete, %d stalled, %d aborted)\n",
			r.Graceful(), r.OK, r.Late, r.Incomplete, r.Stalled, r.Aborted)
		fmt.Fprintf(w, "  stalls:     %d, longest %.3fs\n",
			r.TotalStalls, float64(r.LongestStall)/float64(sim.Second))
		if r.TTRAcc.N() > 0 {
			fmt.Fprintf(w, "  recovery:   %d fault(s) recovered, TTR mean %.3fs max %.3fs; %d unrecovered\n",
				r.TTRAcc.N(), r.TTRAcc.Mean(), r.TTRAcc.Max(), r.Unrecovered)
		} else if r.Unrecovered > 0 {
			fmt.Fprintf(w, "  recovery:   %d fault(s) never recovered before the flow ended\n", r.Unrecovered)
		}
		fmt.Fprintf(w, "  goodput:    %.2f Mbps during faults vs %.2f Mbps steady; %d retries, %d timeouts\n",
			8*r.FaultGoodput()/float64(units.Mbps), 8*r.SteadyGoodput()/float64(units.Mbps),
			r.Retries, r.Timeouts)
	}
	fmt.Fprintln(w)
}

// printContrast distills the paper's resilience claim into one block:
// with the same seed and the same fault timeline, how long did each
// stack sit dark, and how fast did it come back.
func printContrast(w io.Writer, a, b experiment.RunResult) {
	if a.Resilience == nil || b.Resilience == nil {
		return
	}
	stall := func(r experiment.RunResult) float64 {
		return float64(r.Resilience.LongestStall) / float64(sim.Second)
	}
	fmt.Fprintf(w, "contrast: longest stall %.3fs vs %.3fs; bytes moved during faults %s vs %s\n",
		stall(a), stall(b),
		units.ByteCount(a.Resilience.FaultBytes), units.ByteCount(b.Resilience.FaultBytes))
}
