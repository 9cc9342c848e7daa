// Command bench is the repo's performance ledger: four fixed-work
// workloads from the event queue up to the mptcpd daemon, measured end
// to end with tracing off, and a traced run that times every layer's
// public functions from outside and folds a CPU profile by package.
// BENCHMARK.json at the repo root declares the names it emits; see
// README.md in this directory for how to read them.
//
//	go run ./bench                          # all four workloads, end-to-end metrics
//	go run ./bench -trace 1                 # per-layer ladder + traced passes
//	go run ./bench -workload serve -seed 7  # one workload, another seed
//	go run ./bench -aa                      # twice back to back, judged against the bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo records where and on what a result was measured.
type hostInfo struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	BuildS     float64 `json:"build_s"`
}

// workloadReport is one workload's measured metrics.
type workloadReport struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Metrics   map[string]summary `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// FailedShare is failed ÷ attempted operations; anything above
	// zero makes the command exit non-zero.
	FailedShare  float64       `json:"failed_share"`
	FirstFailure string        `json:"first_failure,omitempty"`
	Checks       []checkResult `json:"checks"`
	ExportSHA    string        `json:"export_sha256"`
	JobSHA       string        `json:"job_sha256"`
	SimEvents    uint64        `json:"sim_events"`
	SpanFile     string        `json:"span_file,omitempty"`
	LoadAvg1     float64       `json:"loadavg_1m_before"`
	// PeakRSSMB is the peak resident set of the process under test,
	// printed for information on every run and reported as the
	// per-layer metric bench.peak_rss_mb on traced ones.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

func (w *workloadReport) correct() bool { return w.Failed == 0 && w.Attempted > 0 }

// report is the whole command's output (-o writes it as JSON).
type report struct {
	Host hostInfo `json:"host"`
	// Noisy is set when the 1-minute load average exceeded nproc at
	// the start or between workloads: the numbers are suspect and a
	// reviewer should discard the run. The harness never retries.
	Noisy     bool             `json:"noisy"`
	Traced    bool             `json:"traced"`
	Workloads []workloadReport `json:"workloads"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "all, or one of "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", defaultSeed, "workload seed: every campaign seed in the job lists derives from it")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run's timed passes measure")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer probes, spans and CPU-profile shares instead of end-to-end metrics")
		aa       = flag.Bool("aa", false, "run the benchmark twice back to back and judge the difference against each metric's bound")
		outPath  = flag.String("o", "", "also write the full results as JSON to this file")

		child  = flag.String("child", "", "internal: run as a re-exec'd child (setup | run)")
		mptcpd = flag.String("mptcpd", "", "internal: path of the built daemon binary")
		tmp    = flag.String("tmp", "", "internal: scratch directory")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return errorf("unexpected argument %q", flag.Arg(0))
	}
	if *child != "" {
		err := runChild(childOpts{
			mode: *child, workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			env: jobEnv{mptcpd: *mptcpd, tmp: *tmp},
		})
		if err != nil {
			return errorf("%s: %v", *workload, err)
		}
		return 0
	}

	names := workloadNames()
	if *workload != "all" {
		if !slices.Contains(names, *workload) {
			return errorf("unknown workload %q (want all, %s)", *workload, strings.Join(names, ", "))
		}
		names = []string{*workload}
	}
	if *seconds <= 0 {
		return errorf("-seconds %g: must be positive", *seconds)
	}

	// Ctrl-C or SIGTERM stops the running child, which stops its daemon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := &orchestrator{ctx: ctx, seed: *seed, seconds: *seconds, trace: *trace != 0}
	if err := o.prepare(names); err != nil {
		return errorf("%v", err)
	}
	defer os.RemoveAll(o.tmp)

	runs := 1
	if *aa {
		runs = 2
	}
	var reports []*report
	ok := true
	for i := 0; i < runs; i++ {
		rep, err := o.runAll(names)
		if err != nil {
			return errorf("%v", err)
		}
		printReport(os.Stdout, rep)
		ok = ok && rep.correct()
		reports = append(reports, rep)
	}
	if *aa {
		ok = printAA(os.Stdout, reports[0], reports[1]) && ok
	}
	if *outPath != "" {
		if err := writeJSONFile(*outPath, reports); err != nil {
			errorf("%v", err)
			ok = false
		}
	}
	if len(names) == 1 {
		// The last line of a single-workload run is the result object
		// BENCHMARK.json's contract names.
		if err := printContractLine(os.Stdout, &reports[len(reports)-1].Workloads[0], o.trace); err != nil {
			return errorf("%v", err)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func errorf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	return 1
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return names
}

func (r *report) correct() bool {
	for i := range r.Workloads {
		if !r.Workloads[i].correct() {
			return false
		}
	}
	return true
}

// orchestrator is the parent process: it never runs workload code
// itself, only builds the daemon, re-execs one child per set-up and
// per workload, and gathers what they report.
type orchestrator struct {
	ctx     context.Context
	seed    int64
	seconds float64
	trace   bool

	exe    string
	root   string // repo root (holds go.mod)
	tmp    string
	mptcpd string
	host   hostInfo
	// ladder caches the per-layer probes' results within one traced
	// runAll.
	ladder map[string]summary
}

// repoRoot walks up from the working directory to the go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

func (o *orchestrator) prepare(names []string) error {
	var err error
	if o.exe, err = os.Executable(); err != nil {
		return err
	}
	if o.root, err = repoRoot(); err != nil {
		return err
	}
	out := filepath.Join(o.root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if o.tmp, err = os.MkdirTemp(out, "run-"); err != nil {
		return err
	}
	o.host = hostInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     vcsRevision(),
		LoadAvg1:   loadAvg1(),
	}
	needDaemon := o.trace
	for _, n := range names {
		needDaemon = needDaemon || n == "serve"
	}
	if needDaemon {
		// Built per run directory: concurrent benchmark runs must not
		// overwrite a binary another one is executing.
		o.mptcpd = filepath.Join(o.tmp, "mptcpd")
		t0 := time.Now()
		cmd := exec.CommandContext(o.ctx, "go", "build", "-o", o.mptcpd, "./cmd/mptcpd")
		cmd.Dir = o.root
		if b, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build ./cmd/mptcpd: %v\n%s", err, b)
		}
		o.host.BuildS = time.Since(t0).Seconds()
	}
	return nil
}

func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// loadAvg1 reads the 1-minute load average; -1 when unreadable.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// spawn runs one child and decodes its report.
func (o *orchestrator) spawn(mode, workload string) (*childReport, error) {
	args := []string{
		"-child", mode, "-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-mptcpd", o.mptcpd, "-tmp", o.tmp,
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(o.ctx, o.exe, args...)
	cmd.Dir = o.root
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// On interrupt ask the child to stop (it kills its daemon first);
	// kill it if it has not gone after 15 s.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 15 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child (%s): %w", workload, mode, err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s child (%s): unreadable report: %v", workload, mode, err)
	}
	return &rep, nil
}

// runAll measures every named workload once.
func (o *orchestrator) runAll(names []string) (*report, error) {
	rep := &report{Host: o.host, Traced: o.trace}
	o.ladder = nil
	for _, name := range names {
		// Noisy-host guard: a load above nproc means something else is
		// competing for the CPUs. Warn and mark; never retry silently.
		la := loadAvg1()
		if la > float64(o.host.NProc) {
			fmt.Fprintf(os.Stderr, "bench: WARNING: 1-minute load average %.2f exceeds nproc=%d before %s; marking the run noisy\n",
				la, o.host.NProc, name)
			rep.Noisy = true
		}
		w, err := o.runWorkload(name)
		if err != nil {
			return nil, err
		}
		w.LoadAvg1 = la
		rep.Workloads = append(rep.Workloads, *w)
	}
	return rep, nil
}

// runWorkload measures one workload: extra set-up-only children first
// (each a fresh process, so every set-up is a cold one), then the
// child that sets up and runs the timed passes or the traced run.
func (o *orchestrator) runWorkload(name string) (*workloadReport, error) {
	var setups []float64
	if !o.trace {
		for i := 1; i < setupRuns; i++ {
			r, err := o.spawn("setup", name)
			if err != nil {
				return nil, err
			}
			setups = append(setups, r.SetupS)
		}
	}
	r, err := o.spawn("run", name)
	if err != nil {
		return nil, err
	}
	setups = append(setups, r.SetupS)

	w := &workloadReport{
		Workload: name, Seed: o.seed, Metrics: map[string]summary{},
		Attempted: r.Attempted, Failed: r.Failed, FirstFailure: r.FirstFailure,
		Checks: r.Checks, ExportSHA: r.ExportSHA, JobSHA: r.JobSHA,
		SimEvents: r.SimEvents, SpanFile: r.SpanFile,
	}
	if w.Attempted > 0 {
		w.FailedShare = float64(w.Failed) / float64(w.Attempted)
	}
	w.PeakRSSMB = r.PeakRSSMB
	if o.trace {
		// The ladder is the same whatever the workload: run it once
		// per invocation, in a process of its own so that its worlds
		// and stores do not count towards this workload's peak RSS.
		if o.ladder == nil {
			l, err := o.spawn("ladder", name)
			if err != nil {
				return nil, err
			}
			o.ladder = l.Layer
		}
		for k, v := range o.ladder {
			w.Metrics[k] = v
		}
		for k, v := range r.Layer {
			w.Metrics[k] = v
		}
		if r := w.Metrics["bench.trace_overhead_ratio"].Median; r >= 1.10 {
			fmt.Fprintf(os.Stderr, "bench: WARNING: %s: traced passes took %.2fx the untraced ones; the CPU shares are suspect\n", name, r)
		}
		return w, checkNames(w.Metrics, layerDefs)
	}
	var wall, cpu []float64
	for _, p := range r.Passes {
		wall = append(wall, p.WallS)
		cpu = append(cpu, p.CPUS)
	}
	w.Metrics["setup_s"] = summarize(setups)
	w.Metrics["wall_s"] = summarize(wall)
	w.Metrics["cpu_s"] = summarize(cpu)
	return w, checkNames(w.Metrics, endToEndDefs)
}

// checkNames holds a run to the registry: it must have measured every
// metric the registry (and so BENCHMARK.json) declares for its kind,
// and nothing else.
func checkNames(got map[string]summary, defs []metricDef) error {
	var problems []string
	for _, d := range defs {
		if _, ok := got[d.Name]; !ok {
			problems = append(problems, "declared but not measured: "+d.Name)
		}
	}
	for name := range got {
		if _, ok := findMetric(defs, name); !ok {
			problems = append(problems, "measured but not declared: "+name)
		}
	}
	slices.Sort(problems)
	if len(problems) > 0 {
		return fmt.Errorf("metric names out of step with the registry:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
