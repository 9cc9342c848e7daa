// Command tracestat is mptcplab's tcptrace: it analyzes pcap captures
// produced by the simulator's taps (or any raw-IP pcap of TCP traffic)
// and reports per-flow loss, RTT, and MPTCP reordering statistics —
// the paper's §3.3 metrics recomputed purely from the wire.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mptcplab/internal/cli"
	"mptcplab/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var run = cli.Main("tracestat", parse, analyze)

const usage = "usage: tracestat <capture.pcap> [more.pcap ...]"

// parse takes the captures to read: tracestat has no flags, and its
// positional arguments are its input.
func parse(args []string, stdout io.Writer) ([]string, error) {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(stdout, usage)
	} else if err == nil && fs.NArg() == 0 {
		err = errors.New("no capture given; " + usage)
	}
	return fs.Args(), err
}

func analyze(paths []string, w, _ io.Writer) error {
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		a, err := trace.AnalyzePcap(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== %s ==\n", path)
		a.WriteSummary(w)
		fmt.Fprintln(w)
	}
	return nil
}
