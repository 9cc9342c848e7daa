package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// defsFor returns the metric definitions a run of the given kind emits.
func defsFor(traced bool) []metricDef {
	if traced {
		return layerDefs
	}
	return endToEndDefs
}

// printReport prints every metric by name with unit, sample count,
// median and quartiles, then the output checks.
func printReport(w io.Writer, r *report) {
	h := r.Host
	fmt.Fprintf(w, "bench: %s GOMAXPROCS=%d nproc=%d commit=%s loadavg=%.2f build_s=%.2f noisy=%v\n",
		h.GoVersion, h.GOMAXPROCS, h.NProc, h.Commit, h.LoadAvg1, h.BuildS, r.Noisy)
	for i := range r.Workloads {
		wl := &r.Workloads[i]
		fmt.Fprintf(w, "\n== %s  seed=%d  export_sha256=%.16s  job_sha256=%.16s  sim.events=%d\n",
			wl.Workload, wl.Seed, wl.ExportSHA, wl.JobSHA, wl.SimEvents)
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tunit\tn\tmedian\tq1\tq3\t")
		for _, d := range defsFor(r.Traced) {
			s, ok := wl.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t\n", d.Name, d.Unit, s.N, s.Median, s.Q1, s.Q3)
		}
		tw.Flush()
		fmt.Fprintf(w, "peak_rss_mb   %.1f  (process under test; not gated)\n", wl.PeakRSSMB)
		fmt.Fprintf(w, "failed_share  %g  (%d failed of %d operations)\n", wl.FailedShare, wl.Failed, wl.Attempted)
		if wl.FirstFailure != "" {
			fmt.Fprintf(w, "first failure: %s\n", wl.FirstFailure)
		}
		for _, c := range wl.Checks {
			verdict := "ok"
			if !c.OK {
				verdict = "FAILED: " + c.Detail
			}
			fmt.Fprintf(w, "check  %s: %s\n", c.Name, verdict)
		}
		if wl.SpanFile != "" {
			fmt.Fprintf(w, "spans  %s\n", wl.SpanFile)
		}
	}
}

// worsening is how much worse b is than a, as a share of a, given the
// metric's direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / math.Abs(a)
	if d.Better == higher {
		rel = -rel
	}
	return rel
}

// printAA compares two runs of the same code, metric by metric, and
// reports whether every end-to-end metric stayed within its bound and
// every exact count repeated exactly.
func printAA(w io.Writer, a, b *report) bool {
	ok := true
	fmt.Fprintln(w, "\n== A/A: two runs of the same binary")
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiff\tbound\tverdict\t")
	for i := range a.Workloads {
		wa, wb := &a.Workloads[i], &b.Workloads[i]
		for _, d := range defsFor(a.Traced) {
			sa, oka := wa.Metrics[d.Name]
			sb, okb := wb.Metrics[d.Name]
			if !oka || !okb {
				continue
			}
			diff := worsening(d, sa.Median, sb.Median)
			verdict, bound := "", "-"
			switch {
			case d.Bound > 0:
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
				verdict = "ok"
				// Same code: a breach in either direction is noise
				// wider than the bound.
				if math.Abs(diff) > d.Bound {
					verdict, ok = "BREACH", false
				}
			case d.Exact:
				verdict = "exact"
				if sa.Median != sb.Median {
					verdict, ok = "DIFFERS", false
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\t%s\t\n",
				wa.Workload, d.Name, sa.Median, sb.Median, diff*100, bound, verdict)
		}
		if wa.ExportSHA != wb.ExportSHA || wa.SimEvents != wb.SimEvents {
			fmt.Fprintf(tw, "%s\texport_sha256/sim.events\t\t\t\t\tDIFFERS\t\n", wa.Workload)
			ok = false
		}
	}
	tw.Flush()
	return ok
}

// printContractLine prints the single JSON object BENCHMARK.json's
// contract asks for as the last line of standard output.
func printContractLine(w io.Writer, wl *workloadReport, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defsFor(traced) {
		if s, ok := wl.Metrics[d.Name]; ok {
			metrics[d.Name] = value{s.Median, d.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wl.correct(), wl.Attempted, wl.Failed, metrics})
	if err != nil { // a NaN or infinite value: some base of a ratio was zero
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
