// Command benchjson converts `go test -bench -benchmem` output into a
// JSON record suitable for archiving one BENCH_<sha>.json per commit,
// and enforces the repository's allocation gates: if a gated benchmark
// reports more allocs/op than its ceiling, benchjson exits nonzero and
// the bench CI job fails.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -o BENCH_abc123.json
//
// With -baseline it additionally diffs the gated benchmarks against a
// committed BENCH_*.json and fails on a >10% (-maxregress) regression
// in ns/op or allocs/op, so a perf slide is caught at the PR that
// introduces it rather than discovered in a later speed round.
//
// Input lines are echoed to stderr so the benchmark output stays
// visible in CI logs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// allocGates pins allocs/op ceilings for the pooled hot path. The
// download ceilings sit ~25% above what the runs measure (~570 and
// ~336 allocs per 4 MB download, from 168910 and 79247 before the two
// speed rounds, ~690 and ~360 before options became slots in the
// segment), so any regression back toward per-packet or per-event
// allocation trips the gate long before the old numbers return. The
// encode/decode round trip needs exactly one object, the decoded
// segment. The bloated 8 MB transfer
// measures 753 (a few dozen slice growths on top of the pooled path):
// its ceiling catches the in-flight queue or the scoreboard going back
// to reallocating per ACK, which would add thousands.
var allocGates = map[string]float64{
	"BenchmarkSimEventLoop":      0,
	"BenchmarkSegEncodeDecode":   1,
	"BenchmarkSingleDownload4MB": 720,
	"BenchmarkTCPSingle4MB":      420,
	"BenchmarkTCPBloat8MB":       950,
}

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	noGates := flag.Bool("nogates", false, "parse and report only; skip the alloc-gate check")
	baseline := flag.String("baseline", "", "BENCH_*.json to diff the gated benchmarks against")
	maxRegress := flag.Float64("maxregress", 0.10, "fail when a gated benchmark regresses vs -baseline by more than this fraction in ns/op or allocs/op")
	flag.Parse()

	var results []Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if r, ok := parseLine(line); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *noGates {
		return
	}
	failed := false
	for _, r := range results {
		limit, gated := allocGates[baseName(r.Name)]
		if !gated {
			continue
		}
		if r.AllocsPerOp > limit {
			fmt.Fprintf(os.Stderr, "benchjson: GATE FAILED: %s reports %.0f allocs/op, ceiling %.0f\n",
				r.Name, r.AllocsPerOp, limit)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: gate ok: %s %.0f allocs/op (ceiling %.0f)\n",
				r.Name, r.AllocsPerOp, limit)
		}
	}
	if *baseline != "" && !diffBaseline(results, *baseline, *maxRegress) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// diffBaseline compares the gated benchmarks against an archived
// report, returning false on any regression beyond maxRegress. Gated
// benchmarks missing from either side are reported but not fatal: the
// baseline may predate a benchmark, and renames should not brick CI.
// Allocation counts are deterministic so they get the same relative
// bound as time; a zero-alloc baseline requires staying at zero.
func diffBaseline(results []Result, path string, maxRegress float64) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return false
	}
	var base []Result
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", path, err)
		return false
	}
	byName := make(map[string]Result, len(base))
	for _, r := range base {
		byName[baseName(r.Name)] = r
	}
	ok := true
	for _, r := range results {
		name := baseName(r.Name)
		if _, gated := allocGates[name]; !gated {
			continue
		}
		b, found := byName[name]
		if !found {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %s has no %s; skipping diff\n", path, name)
			continue
		}
		for _, m := range []struct {
			metric    string
			now, then float64
		}{
			{"ns/op", r.NsPerOp, b.NsPerOp},
			{"allocs/op", r.AllocsPerOp, b.AllocsPerOp},
		} {
			switch {
			case m.then == 0 && m.now > 0:
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION: %s %s rose from 0 to %.2f\n",
					name, m.metric, m.now)
				ok = false
			case m.then > 0 && m.now > m.then*(1+maxRegress):
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION: %s %s %.2f vs baseline %.2f (+%.1f%%, allowed +%.0f%%)\n",
					name, m.metric, m.now, m.then, (m.now/m.then-1)*100, maxRegress*100)
				ok = false
			default:
				fmt.Fprintf(os.Stderr, "benchjson: baseline ok: %s %s %.2f vs %.2f\n",
					name, m.metric, m.now, m.then)
			}
		}
	}
	return ok
}

// baseName strips the -<GOMAXPROCS> suffix go test appends.
func baseName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseLine extracts one "BenchmarkX  N  v1 unit1  v2 unit2 ..." line.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[f[i+1]] = v
		}
	}
	return r, true
}
