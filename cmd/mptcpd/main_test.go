package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"mptcplab/internal/experiment"
	"mptcplab/internal/load"
	"mptcplab/internal/sweep/client"
	"mptcplab/internal/units"
)

// newTestServer boots the daemon on a random port (httptest) with a
// fresh cache, exactly as `make serve-smoke` exercises it. An
// optional serverConfig swaps in a disk store, a journal, or the
// fault-injection knobs.
func newTestServer(t *testing.T, cfg ...serverConfig) *httptest.Server {
	t.Helper()
	var c serverConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	ctx, cancel := context.WithCancel(context.Background())
	ts := httptest.NewServer(newServer(ctx, c).routes())
	t.Cleanup(func() { cancel(); ts.Close() })
	return ts
}

func submit(t *testing.T, ts *httptest.Server, spec string) statusView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit %s: status %d: %s", spec, resp.StatusCode, body)
	}
	var st statusView
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response %q: %v", body, err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) statusView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.State {
		case stateDone, stateCancelled, stateFailed:
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish in time", id)
	return statusView{}
}

func getBytes(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// TestServeExperimentCampaign is the serve-smoke acceptance check for
// the experiment kind: the daemon's artifacts are byte-identical to
// running the campaign directly (paperbench's writers), and a repeat
// submission is answered 100% from the content-addressed cache with
// the same bytes.
func TestServeExperimentCampaign(t *testing.T) {
	ts := newTestServer(t)
	spec := `{"experiment":"fig8","reps":1,"seed":42,"workers":2}`

	first := submit(t, ts, spec)
	st := waitTerminal(t, ts, first.ID)
	if st.State != stateDone {
		t.Fatalf("first submission ended %q (error %q)", st.State, st.Error)
	}
	if st.CacheHits != 0 || st.CacheMisses == 0 {
		t.Fatalf("cold run should be all misses: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
	csv1 := getBytes(t, ts, "/v1/campaigns/"+first.ID+"/export.csv")
	json1 := getBytes(t, ts, "/v1/campaigns/"+first.ID+"/export.json")

	// Direct run: same campaign, same opts the daemon uses.
	m := experiment.SimultaneousSYN(experiment.CampaignOpts{
		Reps: 1, Seed: 42, SampleProfiles: true,
	})
	var wantCSV bytes.Buffer
	if err := experiment.WriteCSV(&wantCSV, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1, wantCSV.Bytes()) {
		t.Fatal("daemon export.csv differs from the direct campaign run")
	}
	out := struct {
		Cells         []experiment.CellExport         `json:"cells"`
		Distributions []experiment.DistributionExport `json:"distributions,omitempty"`
	}{Cells: m.Export()}
	var wantJSON bytes.Buffer
	enc := json.NewEncoder(&wantJSON)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(json1, wantJSON.Bytes()) {
		t.Fatal("daemon export.json differs from the direct campaign run")
	}

	// Repeat submission: answered entirely from cache, same bytes.
	second := submit(t, ts, spec)
	st2 := waitTerminal(t, ts, second.ID)
	if st2.State != stateDone {
		t.Fatalf("second submission ended %q (error %q)", st2.State, st2.Error)
	}
	if st2.CacheMisses != 0 || st2.CacheHits != st.CacheMisses {
		t.Fatalf("repeat submission not a 100%% cache hit: hits=%d misses=%d (cold run had %d runs)",
			st2.CacheHits, st2.CacheMisses, st.CacheMisses)
	}
	csv2 := getBytes(t, ts, "/v1/campaigns/"+second.ID+"/export.csv")
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("cache-served export.csv differs from the cold run's")
	}

	// NDJSON rows: one valid record per run, all marked cached on the
	// repeat submission.
	rows := bytes.Split(bytes.TrimSpace(getBytes(t, ts, "/v1/campaigns/"+second.ID+"/rows")), []byte("\n"))
	if len(rows) != int(st.CacheMisses) {
		t.Fatalf("rows stream has %d records, want %d", len(rows), st.CacheMisses)
	}
	for _, row := range rows {
		var rec experimentRow
		if err := json.Unmarshal(row, &rec); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", row, err)
		}
		if !rec.Cached {
			t.Fatalf("repeat-submission row not served from cache: %s", row)
		}
	}
}

// TestServeLoadCampaign: same acceptance check for the load kind,
// plus a cache-aware replay-token lookup of one exported row.
func TestServeLoadCampaign(t *testing.T) {
	ts := newTestServer(t)
	const base = "clients=8,flows=12,dur=5s"
	spec := fmt.Sprintf(`{"kind":"load","base":"%s","rates":[3,6],"reps":1,"seed":7,"workers":2}`, base)

	first := submit(t, ts, spec)
	st := waitTerminal(t, ts, first.ID)
	if st.State != stateDone {
		t.Fatalf("load campaign ended %q (error %q)", st.State, st.Error)
	}
	csv1 := getBytes(t, ts, "/v1/campaigns/"+first.ID+"/export.csv")
	json1 := getBytes(t, ts, "/v1/campaigns/"+first.ID+"/export.json")

	// Direct run through the CLI runner's path.
	baseCfg, err := load.ParseReplay(base)
	if err != nil {
		t.Fatal(err)
	}
	sw := load.RunSweep(load.SweepOpts{Base: baseCfg, Rates: []float64{3, 6}, Reps: 1, Seed: 7})
	var wantCSV, wantJSON bytes.Buffer
	if err := sw.WriteCSV(&wantCSV, baseCfg); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteJSON(&wantJSON, baseCfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1, wantCSV.Bytes()) {
		t.Fatal("daemon load export.csv differs from RunSweep's")
	}
	if !bytes.Equal(json1, wantJSON.Bytes()) {
		t.Fatal("daemon load export.json differs from RunSweep's")
	}

	// Repeat submission: all hits, identical artifacts.
	second := submit(t, ts, spec)
	st2 := waitTerminal(t, ts, second.ID)
	if st2.State != stateDone || st2.CacheMisses != 0 || st2.CacheHits != st.CacheMisses {
		t.Fatalf("repeat load submission: state=%q hits=%d misses=%d (cold had %d runs)",
			st2.State, st2.CacheHits, st2.CacheMisses, st.CacheMisses)
	}
	if !bytes.Equal(csv1, getBytes(t, ts, "/v1/campaigns/"+second.ID+"/export.csv")) {
		t.Fatal("cache-served load export.csv differs from the cold run's")
	}

	// Replay one exported row by its token: the daemon must answer
	// from the cache with exactly the row the campaign exported.
	var exported []load.RunExport
	if err := json.Unmarshal(json1, &exported); err != nil || len(exported) == 0 {
		t.Fatalf("decoding export.json (%d rows): %v", len(exported), err)
	}
	want := exported[0]
	body := getBytes(t, ts, "/v1/replay?token="+url.QueryEscape(want.Replay))
	var view struct {
		Cached bool           `json:"cached"`
		Run    load.RunExport `json:"run"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if !view.Cached {
		t.Fatalf("replay of an already-run token was recomputed: %s", body)
	}
	view.Run.Rep = want.Rep // rep label is positional, not content-addressed
	got, _ := json.Marshal(view.Run)
	expected, _ := json.Marshal(want)
	if !bytes.Equal(got, expected) {
		t.Fatalf("replayed row differs from exported row:\n got %s\nwant %s", got, expected)
	}
}

// TestServeCancelDrains: DELETE mid-campaign stops new runs, marks
// the campaign cancelled, and still serves the completed prefix as
// partial exports.
func TestServeCancelDrains(t *testing.T) {
	ts := newTestServer(t)
	spec := `{"kind":"load","base":"clients=12,flows=30,dur=10s","reps":40,"seed":9,"workers":1}`
	c := submit(t, ts, spec)

	// Wait until at least one run has completed, then cancel.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, c.ID)
		if st.Done >= 1 {
			break
		}
		if st.State == stateDone {
			t.Skip("campaign finished before cancel could land")
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign made no progress")
		}
		time.Sleep(20 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+c.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, ts, c.ID)
	if st.State != stateCancelled {
		t.Fatalf("cancelled campaign ended %q", st.State)
	}
	if st.Done >= st.Total {
		t.Fatalf("cancel did not stop the campaign early: %d/%d runs", st.Done, st.Total)
	}
	csv := getBytes(t, ts, "/v1/campaigns/"+c.ID+"/export.csv")
	lines := bytes.Split(bytes.TrimSpace(csv), []byte("\n"))
	if got := len(lines) - 1; got != st.Done {
		t.Fatalf("partial export has %d rows, want the %d completed runs", got, st.Done)
	}
}

// TestServeQueueFullRetryAfter: with the queue at capacity the daemon
// answers 503 with a Retry-After header, and a client following the
// header lands the submission once the queue drains. The run loop is
// left unstarted so "full" is deterministic, then started manually.
func TestServeQueueFullRetryAfter(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newServer(ctx, serverConfig{queueDepth: 1, noRunLoop: true})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	spec := `{"experiment":"fig8","reps":1,"seed":1,"workers":1}`
	submit(t, ts, spec) // fills the 1-deep queue
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full queue answered %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("queue-full 503 carries no Retry-After header")
	}
	// A rejected submission leaves no state behind.
	if st := getStatus(t, ts, "c2"); st.ID != "" {
		t.Fatalf("rejected submission left campaign state %+v", st)
	}

	// The retrying client helper rides the 503 out: start the run
	// loop (the queue drains) and the same submit goes through.
	go s.runLoop()
	cl := client.New(ts.URL, client.Options{
		BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond, MaxAttempts: 50,
	})
	st, err := cl.Submit(context.Background(), json.RawMessage(spec))
	if err != nil {
		t.Fatalf("retrying submit never landed: %v", err)
	}
	if _, err := cl.WaitTerminal(context.Background(), st.ID, 25*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestServeRowsFollowerBounded: a /rows follower of a campaign that
// never finishes is cut off at the configured lifetime instead of
// holding its handler goroutine forever.
func TestServeRowsFollowerBounded(t *testing.T) {
	ts := newTestServer(t, serverConfig{noRunLoop: true, followMax: 150 * time.Millisecond})
	c := submit(t, ts, `{"experiment":"fig8","reps":1,"seed":1}`)
	start := time.Now()
	body := getBytes(t, ts, "/v1/campaigns/"+c.ID+"/rows")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("follower of a never-finishing campaign held on for %v", elapsed)
	}
	if len(bytes.TrimSpace(body)) != 0 {
		t.Fatalf("queued campaign streamed rows: %q", body)
	}
}

// TestRejectsBadQueueDepth is mptcpd's rejection table, -queue-depth 0
// first: each command line must die in parse — exit 2, exactly one
// stderr line that starts with the binary's name and names the bad
// value, nothing on stdout, no store opened, no listener.
func TestRejectsBadQueueDepth(t *testing.T) {
	for args, want := range map[string]string{
		"-queue-depth 0":       "-queue-depth 0",
		"-queue-depth many":    `"many"`,
		"-follow-max 0s":       "-follow-max 0s",
		"-follow-max -1m":      "-follow-max -1m",
		"-nope":                "-nope",
		"-addr :8080 serve":    `"serve"`,
		"-store /tmp/x /tmp/y": `"/tmp/y"`,
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(args), &stdout, &stderr)
		line, rest, _ := strings.Cut(stderr.String(), "\n")
		if code != 2 || stdout.Len() != 0 || rest != "" ||
			!strings.HasPrefix(line, "mptcpd: ") || !strings.Contains(line, want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				args, code, stdout.String(), stderr.String(), want)
		}
	}
}

// TestAcceptsRepoCommandLines: every mptcpd command line the repo
// itself issues (README, EXPERIMENTS.md, the verify skill, and the
// `-addr … -store …` bench/ boots its daemon with) parses and
// validates, touching no state.
func TestAcceptsRepoCommandLines(t *testing.T) {
	for _, args := range []string{
		"",
		"-addr :8080 -store /var/lib/mptcpd",
		"-addr :8080",
		"-addr 127.0.0.1:8123 -store /var/lib/mptcpd",
		"-addr 127.0.0.1:18080 -store /root/scratch/store",
		"-addr 127.0.0.1:40123 -store /no/such/dir/store",
		"-queue-depth 1 -follow-max 1s",
	} {
		if _, err := parse(strings.Fields(args), io.Discard); err != nil {
			t.Errorf("%s: %v", args, err)
		}
	}
	cfg, err := parse(strings.Fields("-addr 127.0.0.1:1 -store /x"), io.Discard)
	if err != nil || cfg.addr != "127.0.0.1:1" || cfg.storeDir != "/x" || cfg.queueDepth != 128 || cfg.followMax != 10*time.Minute {
		t.Errorf("parse bound %+v, %v", cfg, err)
	}
}

// TestServeRejectsBadSpecs pins the submit-time validation surface:
// every bad spec is refused with a one-line JSON error before anything
// is queued. The swept-axis and controller cases used to be accepted —
// an oversized fleet or a cc= typo finished "done" with rows whose
// fail_reason was a panic, and non-positive axes exported rows labelled
// with values that never ran.
func TestServeRejectsBadSpecs(t *testing.T) {
	ts := newTestServer(t)
	for spec, code := range map[string]int{
		`{"experiment":"fig99"}`:                                     http.StatusBadRequest,
		`{"kind":"load","base":"clients=banana"}`:                    http.StatusBadRequest,
		`{"kind":"load","scheds":["warp-drive"]}`:                    http.StatusBadRequest,
		`{"kind":"quantum"}`:                                         http.StatusBadRequest,
		`{"experiment":"fig8","reps":-1}`:                            http.StatusBadRequest,
		`{"kind":"load","clients":[999999]}`:                         http.StatusBadRequest,
		`{"kind":"load","rates":[-3]}`:                               http.StatusBadRequest,
		`{"kind":"load","clients":[20,-5]}`:                          http.StatusBadRequest,
		`{"kind":"load","rates":[0]}`:                                http.StatusBadRequest,
		`{"kind":"load","base":"clients=8,flows=12,dur=5s,cc=foo"}`:  http.StatusBadRequest,
		`{"kind":"load","base":"clients=8,wifi=lan"}`:                http.StatusBadRequest,
		`{"kind":"load","reps":-1}`:                                  http.StatusBadRequest,
		`{"experiment":"` + strings.Repeat("x", maxSpecBytes) + `"}`: http.StatusRequestEntityTooLarge,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(spec) > 80 {
			spec = spec[:80] + "..."
		}
		if resp.StatusCode != code {
			t.Fatalf("spec %s answered %d, want %d", spec, resp.StatusCode, code)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || strings.Contains(e.Error, "\n") {
			t.Fatalf("spec %s: want a one-line JSON error, got %q (%v)", spec, body, err)
		}
	}
	if st := getStatus(t, ts, "c1"); st.ID != "" {
		t.Fatalf("a rejected spec left campaign state %+v", st)
	}
}

// TestServeKeysPinned pins the two content addresses to literals
// computed at the commit before the cache protocol moved into
// sweep.Memo: a store written by any earlier daemon keeps answering.
func TestServeKeysPinned(t *testing.T) {
	got := experimentKey(experiment.CampaignJob{
		Experiment: "fig8", Row: "MP-2 (delayed SYN)", Size: 512 * units.KB, Rep: 1,
		Sample: true, Seed: -1234567890123,
	})
	if want := "3391691b6f4fd38d51ad5017f75efce7e0366a8e9445d3328a58f73d0157f07f:-1234567890123"; got != want {
		t.Errorf("experimentKey = %s, want %s", got, want)
	}
	cfg, err := load.ParseReplay("clients=8,flows=12,dur=5s,seed=77,sched=redundant")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loadKey(cfg), "21a0830369f3d0fcf874481de426cf4f4ad5e55455ac3af3897793bc107b3495:77"; got != want {
		t.Errorf("loadKey = %s, want %s", got, want)
	}
}

// TestServeReplayThenSweepRestampsRep: the rep label is positional,
// not part of the content address. Replaying a sweep's rep-1 token
// first stores that row under rep 0; the sweep submitted afterwards is
// answered from it and must still export rep=1 — byte-identically to
// the direct runner.
func TestServeReplayThenSweepRestampsRep(t *testing.T) {
	ts := newTestServer(t)
	const base = "clients=8,flows=12,dur=5s"
	baseCfg, err := load.ParseReplay(base)
	if err != nil {
		t.Fatal(err)
	}
	sw := load.RunSweep(load.SweepOpts{Base: baseCfg, Reps: 2, Seed: 11})
	var wantCSV bytes.Buffer
	if err := sw.WriteCSV(&wantCSV, baseCfg); err != nil {
		t.Fatal(err)
	}
	rep1 := sw.Export()[1]
	if rep1.Rep != 1 {
		t.Fatalf("second exported row has rep %d, want 1", rep1.Rep)
	}

	var view struct {
		Cached bool           `json:"cached"`
		Run    load.RunExport `json:"run"`
	}
	body := getBytes(t, ts, "/v1/replay?token="+url.QueryEscape(rep1.Replay))
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Cached || view.Run.Rep != 0 {
		t.Fatalf("cold standalone replay: cached=%v rep=%d, want a computed rep-0 row", view.Cached, view.Run.Rep)
	}

	c := submit(t, ts, fmt.Sprintf(`{"kind":"load","base":"%s","reps":2,"seed":11}`, base))
	st := waitTerminal(t, ts, c.ID)
	if st.State != stateDone || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("sweep after replay: state=%q hits=%d misses=%d, want done with the replayed row a hit",
			st.State, st.CacheHits, st.CacheMisses)
	}
	if got := getBytes(t, ts, "/v1/campaigns/"+c.ID+"/export.csv"); !bytes.Equal(got, wantCSV.Bytes()) {
		t.Fatalf("export.csv after a replay-seeded hit differs from RunSweep's:\n%s\nwant:\n%s", got, wantCSV.Bytes())
	}
}

// TestServeStatusCountsFailedRows: a campaign is "done" when its runner
// returned, and the status must still say when rows in it are failed
// runs. The daemon has no per-run budget of its own, so the test holds
// the run loop, takes the submitted campaign off the queue and runs it
// the way runLoop would, with one change: its sweep carries a 1 ns
// wall-clock deadline, so the watchdog kills every run at its first
// check (the spec is sized to reach one: far more than 65,536 events
// per run). A healthy campaign on the same daemon keeps the status body
// it always had — no failed_rows key at all.
func TestServeStatusCountsFailedRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := newServer(ctx, serverConfig{noRunLoop: true})
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() { cancel(); ts.Close() })

	const base = "clients=200,rate=60,dur=60s,drain=10s,mix=web"
	doomed := submit(t, ts, fmt.Sprintf(`{"kind":"load","base":"%s","rates":[30,60],"reps":1,"seed":7,"workers":1}`, base))
	c := <-srv.queue
	c.run = func(c *campaignState) error {
		so := load.SweepOpts{Rates: c.spec.Rates, Reps: c.spec.Reps, Seed: c.spec.Seed, Workers: c.spec.Workers}
		var err error
		if so.Base, err = load.ParseReplay(c.spec.Base); err != nil {
			return err
		}
		so.Base.Deadline = time.Nanosecond
		return srv.runLoad(c, so)
	}
	srv.runCampaign(c)
	st := getStatus(t, ts, doomed.ID)
	if st.State != stateDone || st.Rows != 2 || st.FailedRows != 2 {
		t.Fatalf("all-failed campaign: state=%q rows=%d failed_rows=%d error=%q, want done/2/2", st.State, st.Rows, st.FailedRows, st.Error)
	}
	rows := getBytes(t, ts, "/v1/campaigns/"+doomed.ID+"/rows")
	for _, row := range bytes.Split(bytes.TrimSpace(rows), []byte("\n")) {
		if !bytes.Contains(row, []byte("wall-clock deadline exceeded")) {
			t.Fatalf("a row counted as failed does not name the watchdog: %s", row)
		}
	}

	healthy := submit(t, ts, `{"kind":"load","base":"clients=8,flows=12,dur=5s","rates":[3],"reps":1,"seed":7,"workers":1}`)
	srv.runCampaign(<-srv.queue)
	if st := getStatus(t, ts, healthy.ID); st.State != stateDone || st.Rows != 1 {
		t.Fatalf("healthy campaign: state=%q rows=%d error=%q", st.State, st.Rows, st.Error)
	}
	if body := getBytes(t, ts, "/v1/campaigns/"+healthy.ID); bytes.Contains(body, []byte("failed_rows")) {
		t.Fatalf("healthy campaign's status grew a key: %s", body)
	}
}
