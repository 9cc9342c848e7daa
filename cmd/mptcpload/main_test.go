package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptcplab/internal/cli"
	"mptcplab/internal/load"
)

// TestRejectsBadSweeps is mptcpload's rejection table: each command
// line must die in parse — exit 2, exactly one stderr line that starts
// with the binary's name and names the bad value, nothing on stdout,
// before any sweep row runs. A scheduler or controller typo would
// otherwise sweep a grid of fallback or failed rows; a non-positive
// axis would export rows labelled with a value that never ran; an
// unknown -format would silently write CSV.
func TestRejectsBadSweeps(t *testing.T) {
	for args, want := range map[string]string{
		"-scheduler weighted:3;oops": `"weighted:3;oops"`,
		"-rates -3":                  "-3",
		"-rates 2,x":                 `"x"`,
		"-fleets 999999":             "999999",
		"-fleets 20,-5":              "-5",
		"-fleets 20,,30":             `""`,
		"-reps -1":                   "-1",
		"-cc foo":                    `"foo"`,
		"-format xml":                `"xml"`,
		"-wifi nope":                 `"nope"`,
		"-carrier nope":              `"nope"`,
		"-replay clients=8,flows=6":  "-replay",
		"-mix enormous":              `"enormous"`,
		"-transport wifi=2,lte=1":    `"lte"`,
		"-bg wd=8Mbps,sideways=1":    `"bgsideways"`,
		"-chaos earthquake":          `"earthquake"`,
		"-duration -5s":              "-5s",
		"-think soon":                `"soon"`,
		"-res-out res.csv":           "-chaos",
		"-nope":                      "-nope",
		"-clients 20 sweep.csv":      `"sweep.csv"`,
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(args), &stdout, &stderr)
		line, rest, _ := strings.Cut(stderr.String(), "\n")
		if code != 2 || stdout.Len() != 0 || rest != "" ||
			!strings.HasPrefix(line, "mptcpload: ") || !strings.Contains(line, want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				args, code, stdout.String(), stderr.String(), want)
		}
	}
}

// TestAcceptsRepoCommandLines: every mptcpload command line the repo's
// documents and Makefile issue (loadsmoke and chaos-smoke among them)
// parses and validates, and so does each flag they do not use.
func TestAcceptsRepoCommandLines(t *testing.T) {
	lines, err := cli.RepoCommandLines("../..", "mptcpload")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 10 {
		t.Fatalf("found %d mptcpload command lines in the docs; the Makefile alone issues eight", len(lines))
	}
	lines = append(lines, []string{},
		strings.Fields("-sessions 20 -think 500ms -mix 64KB -cc olia -scheduler roundrobin -sample -bg wd=8Mbps,wu=1Mbps,cd=2Mbps,cu=256Kbps -selfcheck=false -progress -deadline 30s"))
	for _, args := range lines {
		if _, err := parse(args, io.Discard); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}

// replay reruns an exported row's token as mptcpsim -replay does:
// load's one token parser, runner and summary.
func replay(t *testing.T, token string) (load.Config, string) {
	t.Helper()
	cfg, err := load.ParseReplay(token)
	if err != nil {
		t.Fatalf("replaying %s: %v", token, err)
	}
	var b strings.Builder
	load.WriteSummary(&b, cfg, load.Run(cfg))
	return cfg, b.String()
}

// TestReplayNeedsNoOtherFlag: a row swept off the default profiles
// carries them in its token, so its replay re-executes that exact run
// from the token alone.
func TestReplayNeedsNoOtherFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.csv")
	sweep := "-clients 8 -flows 6 -duration 3s -drain 5s -seed 9 -wifi wifi -carrier verizon -o " + out
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(sweep), &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", sweep, code, stderr.String())
	}
	csv, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	_, token, _ := strings.Cut(strings.TrimSpace(string(csv)), `"`)
	token = strings.TrimSuffix(token, `"`)
	if !strings.Contains(token, ",wifi=wifi,cell=verizon") {
		t.Fatalf("token %q does not carry the profiles", token)
	}
	cfg, got := replay(t, token)
	if cfg.WiFi.Name != "wifi" || cfg.Cell.Name != "verizon" || !strings.Contains(got, "replay:     "+token+"\n") {
		t.Errorf("replaying %s: profiles %s/%s, summary %q", token, cfg.WiFi.Name, cfg.Cell.Name, got)
	}
}

// TestReplayPrintsItsRow: replaying the first row of a small chaos sweep
// prints the flow-completion quantiles that row exported, to the
// printed precision, and the run's resilience report under its schedule.
func TestReplayPrintsItsRow(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.json")
	const spec = "outage:path=wifi;at=1s;dur=1s"
	sweep := "-clients 8 -flows 12 -duration 5s -drain 10s -seed 7 -chaos " + spec + " -o " + out
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(sweep), &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", sweep, code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rows []load.RunExport
	if err := json.Unmarshal(b, &rows); err != nil || len(rows) == 0 {
		t.Fatalf("decoding %d rows: %v", len(rows), err)
	}
	row := rows[0]
	_, got := replay(t, row.Replay)
	fct := fmt.Sprintf("fct:        p50 %.3fs  p90 %.3fs  p99 %.3fs  mean %.3fs  max %.3fs\n",
		row.FCTP50, row.FCTP90, row.FCTP99, row.FCTMean, row.FCTMax)
	if !strings.Contains(got, fct) {
		t.Errorf("replay summary does not print its row's quantiles %q:\n%s", fct, got)
	}
	if !strings.Contains(got, "chaos:      "+spec+"\n  verdict:    ") {
		t.Errorf("replay summary lacks the resilience report:\n%s", got)
	}
}
