// Package cli is what every cmd/*/main.go shares of the flag → spec
// layer (DESIGN.md §17). A binary binds its flags straight into the
// spec its runner takes and validates it in a parse function that runs
// nothing; Main turns what parse refuses into the one rejection every
// binary gives, before a byte is written or an event scheduled.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"mptcplab/internal/mptcp"
	"mptcplab/internal/pathmodel"
)

// Main builds a binary's run(args, stdout, stderr) int — all of it but
// os.Exit, so tests call what main calls — and is the exit-code contract.
// What parse rejects (flag syntax, a value an fs.Func refuses, a stray
// argument, a spec failing its Validate) is one "name: message" line on
// stderr and exit 2, flag's own code for a syntax error; -h is the usage
// on stdout and 0. An error from exec is the same line and exit 1;
// context.Canceled, a run a signal cut short, is a silent 130.
func Main[S any](name string, parse func(args []string, stdout io.Writer) (S, error),
	exec func(spec S, stdout, stderr io.Writer) error) func(args []string, stdout, stderr io.Writer) int {
	return func(args []string, stdout, stderr io.Writer) int {
		spec, err := parse(args, stdout)
		code := 2
		if err == nil {
			code = 1
			err = exec(spec, stdout, stderr)
		}
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.Is(err, context.Canceled):
			return 130
		}
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return code
	}
}

// Parse parses args into fs without printing (flag's own report is the
// error plus the whole usage; Main prints one line) and refuses a stray
// positional argument. -h prints the usage and returns flag.ErrHelp.
func Parse(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(stdout)
		fs.Usage()
	} else if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return err
}

// Var defines a flag that parse — the function beside T that turns a
// string into one — writes into *dst.
func Var[T any](fs *flag.FlagSet, name, usage string, dst *T, parse func(string) (T, error)) {
	fs.Func(name, usage, func(v string) (err error) {
		*dst, err = parse(v)
		return err
	})
}

// List is Var's comma-list form: parse turns each element into a T,
// and the list replaces *dst.
func List[T any](dst *[]T, parse func(string) (T, error)) func(string) error {
	return func(v string) error {
		*dst = nil
		for _, part := range strings.Split(v, ",") {
			x, err := parse(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			*dst = append(*dst, x)
		}
		return nil
	}
}

// Scheduler defines the packet-scheduler flag (-scheduler, or -sched),
// checked as parsed; its help lists the registry, not a copy of it.
func Scheduler(fs *flag.FlagSet, name string, dst *string) {
	usage := "MPTCP scheduler plugin: " + strings.Join(mptcp.SchedulerNames(), " | ") +
		"; weighted takes weights as weighted:w0;w1;... (default minrtt)"
	Var(fs, name, usage, dst, func(v string) (string, error) { return v, mptcp.ValidateScheduler(v) })
}

// Profiles defines -wifi and -carrier over a spec's two access
// profiles, which the caller has already set to its defaults.
func Profiles(fs *flag.FlagSet, wifi, cell *pathmodel.Profile) {
	Var(fs, "wifi", "WiFi profile: wifi (home) | coffeeshop (default "+wifi.Name+")", wifi, pathmodel.ByName)
	Var(fs, "carrier", "cellular profile: att | verizon | sprint | dual-lte | 5g-mmwave-fade (default "+cell.Name+")", cell, pathmodel.ByName)
}
