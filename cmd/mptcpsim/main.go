// Command mptcpsim runs one configured download on the simulated
// testbed and reports its metrics — the unit of measurement behind
// every figure in the paper. It can also write tcpdump-style pcap
// captures from both endpoints for offline analysis with tracestat.
//
// Under a fault schedule (-chaos) each run also prints its resilience
// report; -transport takes a list, run in order on the same seed, so
// the paper's §6 contrast is one command line:
//
//	mptcpsim -chaos 'outage:path=wifi;at=2s;dur=6s' -size 24MB -seed 11 -sample=false -transport mp2,sp-wifi
//
// -replay reruns one run from its token, alone: a fleet row's
// (mptcpload's last column) or a fuzz case's (mptcpfuzz's seed:mask).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mptcplab/internal/chaos"
	"mptcplab/internal/check"
	"mptcplab/internal/cli"
	"mptcplab/internal/experiment"
	"mptcplab/internal/load"
	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/pcap"
	"mptcplab/internal/stats"
	"mptcplab/internal/trace"
	"mptcplab/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var run = cli.Main("mptcpsim", parse, download)

// spec is one invocation: the testbed, the download on it under each
// transport, and where the captures go — or the one run a replay
// token names, a fleet row or a fuzz case.
type spec struct {
	tb         experiment.TestbedConfig
	rc         experiment.RunConfig
	transports []experiment.Transport
	pcap       string

	row      *load.Config
	fuzzCase *check.Scenario
}

// parse is the flag → spec seam (internal/cli): it runs nothing.
func parse(args []string, stdout io.Writer) (spec, error) {
	s := spec{
		tb:         experiment.TestbedConfig{WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT()},
		rc:         experiment.RunConfig{Size: 4 * units.MB, SelfCheck: true},
		transports: []experiment.Transport{experiment.MP2},
	}
	fs := flag.NewFlagSet("mptcpsim", flag.ContinueOnError)
	fs.Func("transport", "sp-wifi | sp-cell | mp2 | mp4, or a comma list run in order on the same seed (default mp2)",
		cli.List(&s.transports, experiment.ParseTransport))
	cli.Profiles(fs, &s.tb.WiFi, &s.tb.Cell)
	fs.StringVar(&s.rc.Controller, "cc", "coupled", "reno | coupled | olia")
	cli.Scheduler(fs, "scheduler", &s.rc.Scheduler)
	cli.Var(fs, "size", "download size, e.g. 512KB or 24MB (default 4MB)", &s.rc.Size, units.ParseByteCount)
	fs.Int64Var(&s.tb.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&s.tb.SampleProfiles, "sample", true, "sample per-run link-parameter variation from the seed")
	fs.BoolVar(&s.rc.SimultaneousSYN, "simultaneous-syn", false, "send all subflow SYNs together (§4.1.2)")
	cold := fs.Bool("cold-radio", false, "skip the pre-measurement radio warmup pings")
	cli.Var(fs, "chaos", chaosUsage(), &s.rc.Chaos, chaos.Parse)
	fs.StringVar(&s.pcap, "pcap", "", "write client+server captures to <prefix>-client.pcap / -server.pcap")
	fs.Func("replay", "rerun one run from its token, and nothing else: a fleet row's (k=v,...) or a fuzz case's (seed:mask[:sched])", func(v string) error {
		if strings.Contains(v, "=") {
			cfg, err := load.ParseReplay(v)
			s.row = &cfg
			return err
		}
		sc, err := check.ParseReplay(v)
		s.fuzzCase = &sc
		return err
	})
	if err := cli.Parse(fs, args, stdout); err != nil {
		return s, err
	}
	if s.row != nil || s.fuzzCase != nil {
		var other error
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "replay" && other == nil {
				other = fmt.Errorf("-replay names the whole run; drop -%s", f.Name)
			}
		})
		return s, other
	}
	if s.pcap != "" && len(s.transports) > 1 {
		return s, errors.New("-pcap captures one download; pass one -transport")
	}
	s.tb.WarmRadio = !*cold
	return s, s.rc.Validate()
}

// chaosUsage lists each preset with the spec it expands to.
func chaosUsage() string {
	var b strings.Builder
	b.WriteString("fault schedule: a preset or a spec like 'flap:path=wifi;at=2s;dur=500ms;every=2s;n=5'; " +
		"presets override fields as 'name:key=val;...' and compose with '+':")
	for _, name := range chaos.PresetNames() {
		sched, _ := chaos.Named(name) // a preset name is one Named knows
		fmt.Fprintf(&b, "\n  %-8s %s", name, sched.Spec())
	}
	return b.String()
}

// download runs the spec: its replay, or the download under each
// transport with every block printed before a failed, violated or
// incomplete run is the error.
func download(s spec, w, _ io.Writer) error {
	switch {
	case s.row != nil:
		res := load.Run(*s.row)
		load.WriteSummary(w, *s.row, res)
		if res.Failed || res.Violations > 0 {
			return errors.New("the replayed run failed or violated protocol invariants")
		}
		return nil
	case s.fuzzCase != nil:
		rep := check.RunScenario(*s.fuzzCase, nil)
		rep.WriteText(w)
		if !rep.Ok() {
			return fmt.Errorf("%d violation(s)", rep.Count)
		}
		return nil
	}

	if !s.rc.Chaos.Empty() {
		fmt.Fprintf(w, "schedule: %s\n\n", s.rc.Chaos.Spec())
	}
	results := make([]experiment.RunResult, len(s.transports))
	for i, tr := range s.transports {
		if i > 0 {
			fmt.Fprintln(w)
		}
		s.rc.Transport, s.tb.ServerSecondIface = tr, tr == experiment.MP4
		res, err := runOne(s, w)
		if err != nil {
			return err
		}
		results[i] = res
	}
	if len(results) == 2 && results[0].Resilience != nil && results[1].Resilience != nil {
		a, b := results[0].Resilience, results[1].Resilience
		fmt.Fprintf(w, "\ncontrast: longest stall %.3fs vs %.3fs; bytes moved during faults %s vs %s\n",
			a.LongestStallS, b.LongestStallS, units.ByteCount(a.FaultBytes), units.ByteCount(b.FaultBytes))
	}
	for i, res := range results {
		tr := s.transports[i]
		switch {
		case res.FailReason != "":
			return fmt.Errorf("%s run failed: %s", tr, res.FailReason)
		case res.Violations > 0:
			return fmt.Errorf("%s run: %d protocol violations, first: %s", tr, res.Violations, res.FirstViolation)
		case !res.Completed:
			return fmt.Errorf("%s download did not complete within the simulation timeout", tr)
		}
	}
	return nil
}

// runOne runs the spec's download under its transport, with captures
// when asked, and prints its metrics block and resilience report.
func runOne(s spec, w io.Writer) (experiment.RunResult, error) {
	tb := experiment.NewTestbed(s.tb)
	var captures []func() // each reports one finished capture
	if s.pcap != "" {
		for _, end := range []struct {
			name string
			host *netem.Host
		}{{"client", tb.Client}, {"server", tb.Server}} {
			path := s.pcap + "-" + end.name + ".pcap"
			f, err := os.Create(path)
			if err != nil {
				return experiment.RunResult{}, err
			}
			defer f.Close()
			pw, err := pcap.NewWriter(f)
			if err != nil {
				return experiment.RunResult{}, err
			}
			end.host.AddTap(trace.PcapTap(pw))
			captures = append(captures, func() { fmt.Fprintf(w, "wrote %s (%d packets)\n", path, pw.Packets) })
		}
	}
	res := tb.Run(s.rc)
	for _, report := range captures {
		report()
	}
	fmt.Fprintf(w, "config:        %s over %s (+%s)\n", s.rc.Describe(), s.tb.Cell.Name, s.tb.WiFi.Name)
	if res.Completed {
		fmt.Fprintf(w, "download time: %.3f s\n", res.DownloadTime.Seconds())
	} else {
		fmt.Fprintln(w, "download time: did not complete")
	}
	fmt.Fprintf(w, "subflows:      %d\n", res.Subflows)
	fmt.Fprintf(w, "cell share:    %.1f%%\n", res.CellShare()*100)
	fmt.Fprintf(w, "wifi:  %8d data pkts, loss %.2f%%\n", res.WiFiDataPkts, res.WiFiLossRate()*100)
	fmt.Fprintf(w, "cell:  %8d data pkts, loss %.2f%%\n", res.CellDataPkts, res.CellLossRate()*100)
	printRTT(w, "wifi RTT", res.WiFiRTTms)
	printRTT(w, "cell RTT", res.CellRTTms)
	if len(res.OFOms) > 0 {
		s := stats.New()
		s.AddAll(res.OFOms)
		fmt.Fprintf(w, "out-of-order delay: n=%d in-order=%.1f%% mean=%.1fms p95=%.1fms max=%.0fms\n",
			s.N(), 100*(1-s.FractionAbove(0)), s.Mean(), s.Quantile(0.95), s.Max())
	}
	if res.Resilience != nil {
		res.Resilience.WriteText(w)
	}
	return res, nil
}

func printRTT(w io.Writer, label string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	s := stats.New()
	s.AddAll(ms)
	fmt.Fprintf(w, "%s: n=%d min=%.1f median=%.1f mean=%.1f max=%.1f ms\n",
		label, s.N(), s.Min(), s.Median(), s.Mean(), s.Max())
}
