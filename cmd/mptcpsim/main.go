// Command mptcpsim runs one configured download on the simulated
// testbed and reports its metrics — the unit of measurement behind
// every figure in the paper. It can also write tcpdump-style pcap
// captures from both endpoints for offline analysis with tracestat.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"mptcplab/internal/cli"
	"mptcplab/internal/experiment"
	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/pcap"
	"mptcplab/internal/stats"
	"mptcplab/internal/trace"
	"mptcplab/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var run = cli.Main("mptcpsim", parse, download)

// spec is one invocation: the testbed, the download on it, and where
// the captures go.
type spec struct {
	tb   experiment.TestbedConfig
	rc   experiment.RunConfig
	pcap string
}

// parse is the flag → spec seam (internal/cli): it runs nothing.
func parse(args []string, stdout io.Writer) (spec, error) {
	s := spec{
		tb: experiment.TestbedConfig{WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(), SampleProfiles: true},
		rc: experiment.RunConfig{Transport: experiment.MP2, Size: 4096 * units.KB},
	}
	fs := flag.NewFlagSet("mptcpsim", flag.ContinueOnError)
	cli.Var(fs, "transport", "sp-wifi | sp-cell | mp2 | mp4 (default mp2)", &s.rc.Transport, experiment.ParseTransport)
	cli.Profiles(fs, &s.tb.WiFi, &s.tb.Cell)
	fs.StringVar(&s.rc.Controller, "cc", "coupled", "reno | coupled | olia")
	cli.Scheduler(fs, "scheduler", &s.rc.Scheduler)
	fs.Func("size-kb", "download size in KB (default 4096)", func(v string) error {
		kb, err := strconv.Atoi(v)
		s.rc.Size = units.ByteCount(kb) * units.KB
		return err
	})
	fs.Int64Var(&s.tb.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&s.rc.SimultaneousSYN, "simultaneous-syn", false, "send all subflow SYNs together (§4.1.2)")
	cold := fs.Bool("cold-radio", false, "skip the pre-measurement radio warmup pings")
	fs.StringVar(&s.pcap, "pcap", "", "write client+server captures to <prefix>-client.pcap / -server.pcap")
	if err := cli.Parse(fs, args, stdout); err != nil {
		return s, err
	}
	s.tb.WarmRadio, s.tb.ServerSecondIface = !*cold, s.rc.Transport == experiment.MP4
	return s, s.rc.Validate()
}

// download runs the one measurement and prints its metrics.
func download(s spec, w, _ io.Writer) error {
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
				return err
			}
			defer f.Close()
			pw, err := pcap.NewWriter(f)
			if err != nil {
				return err
			}
			end.host.AddTap(trace.PcapTap(pw))
			captures = append(captures, func() { fmt.Fprintf(w, "wrote %s (%d packets)\n", path, pw.Packets) })
		}
	}
	res := tb.Run(s.rc)
	for _, report := range captures {
		report()
	}
	if !res.Completed {
		return errors.New("download did not complete within the simulation timeout")
	}
	fmt.Fprintf(w, "config:        %s over %s (+%s)\n", s.rc.Describe(), s.tb.Cell.Name, s.tb.WiFi.Name)
	fmt.Fprintf(w, "download time: %.3f s\n", res.DownloadTime.Seconds())
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
	return nil
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
