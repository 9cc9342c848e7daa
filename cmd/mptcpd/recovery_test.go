package main

// The service fault-injection suite: kill -9 the daemon mid-campaign
// at injected sync points, corrupt and truncate store segments on
// disk, fill the journal directory with garbage — and assert the
// restarted daemon recovers: resumes the interrupted campaign,
// replays the completed prefix from the store as cache hits, and
// exports byte-for-byte what an uninterrupted daemon exports.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mptcplab/internal/sweep"
	"mptcplab/internal/sweep/client"
)

// crashSpec is the campaign the crash suite interrupts: 12 serial
// runs, each tens of milliseconds, so a sync point mid-list kills the
// daemon with real completed rows on disk and real work left.
const (
	crashSpec    = `{"kind":"load","base":"clients=8,flows=10,dur=5s","reps":12,"seed":11,"workers":1}`
	crashSpecRun = 12 // total rows the spec produces
	crashAt      = 5  // SIGKILL after this many rows
)

// TestHelperDaemon is not a test: re-executed by startHelperDaemon
// with MPTCPD_HELPER_STORE set, it becomes the real daemon process —
// durable store + journal from the env dir, optional self-SIGKILL
// sync point, listening on a kernel-assigned port it prints to
// stdout. The parent kills it with the actual signal, not a polite
// shutdown, so recovery is tested against a genuine dead process.
func TestHelperDaemon(t *testing.T) {
	dir := os.Getenv("MPTCPD_HELPER_STORE")
	if dir == "" {
		t.Skip("helper process entry point; only meaningful re-executed with MPTCPD_HELPER_STORE")
	}
	cfg, err := openDurable(serverConfig{queueDepth: 32, storeDir: dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	if n, _ := strconv.Atoi(os.Getenv("MPTCPD_CRASH_AFTER")); n > 0 {
		cfg.crashAfter = n // default crashFn: SIGKILL ourselves
	}
	s := newServer(context.Background(), cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	fmt.Printf("MPTCPD_ADDR=%s\n", ln.Addr())
	http.Serve(ln, s.routes())
}

// startHelperDaemon launches the helper process over the given store
// dir and returns the command plus the daemon's base URL.
func startHelperDaemon(t *testing.T, dir string, crashAfter int) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperDaemon$")
	cmd.Env = append(os.Environ(),
		"MPTCPD_HELPER_STORE="+dir,
		fmt.Sprintf("MPTCPD_CRASH_AFTER=%d", crashAfter))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "MPTCPD_ADDR="); ok {
			go func() { // keep draining so the child never blocks on stdout
				for sc.Scan() {
				}
			}()
			return cmd, "http://" + addr
		}
	}
	cmd.Wait()
	t.Fatal("helper daemon exited before announcing its address")
	return nil, ""
}

// submitCrashing submits crashSpec to a daemon armed to kill itself.
// The kill can land before the 201 flushes to the client — that's the
// durability design working, not a failure: the spec was journaled
// before acceptance, so recovery still owns it. A failed submit is
// tolerated exactly when the journal proves the submission landed.
func submitCrashing(ctx context.Context, t *testing.T, cl *client.Client, dir string) {
	t.Helper()
	st, err := cl.Submit(ctx, json.RawMessage(crashSpec))
	if err == nil && st.ID != "c1" {
		t.Fatalf("first submission got id %q", st.ID)
	}
	if err != nil {
		if _, serr := os.Stat(filepath.Join(dir, "journal", "c1.campaign.json")); serr != nil {
			t.Fatalf("submit failed (%v) with nothing journaled (%v)", err, serr)
		}
	}
}

// referenceExports runs crashSpec uninterrupted on a fresh in-memory
// daemon and returns its artifacts — the byte-identity oracle.
func referenceExports(t *testing.T) (csv, jsonb []byte) {
	t.Helper()
	ts := newTestServer(t)
	st := submit(t, ts, crashSpec)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != stateDone {
		t.Fatalf("reference campaign ended %q (%s)", fin.State, fin.Error)
	}
	return getBytes(t, ts, "/v1/campaigns/"+st.ID+"/export.csv"),
		getBytes(t, ts, "/v1/campaigns/"+st.ID+"/export.json")
}

// TestServeCrashRecovery is the acceptance case the tentpole names: a
// campaign interrupted by SIGKILL at an injected sync point, then a
// restart over the same store/journal, must resume the campaign,
// answer the completed prefix from the store, and export CSV/JSON
// byte-identical to an uninterrupted run.
func TestServeCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Daemon one: armed to SIGKILL itself after crashAt rows.
	cmd, base := startHelperDaemon(t, dir, crashAt)
	cl := client.New(base, client.Options{BaseDelay: 50 * time.Millisecond, MaxAttempts: 8})
	submitCrashing(ctx, t, cl, dir)
	// The injected sync point fires mid-campaign; the process dies by
	// its own SIGKILL — no drain, no terminal journal marker.
	if err := cmd.Wait(); err == nil {
		t.Fatal("daemon exited cleanly; the sync point never fired")
	}
	if _, err := os.Stat(filepath.Join(dir, "journal", "c1.done")); !os.IsNotExist(err) {
		t.Fatalf("killed daemon left a terminal marker (err=%v) — the campaign would not resume", err)
	}

	// Daemon two: same store and journal, no crash armed. It must
	// resume c1 on its own — no resubmission.
	_, base2 := startHelperDaemon(t, dir, 0)
	cl2 := client.New(base2, client.Options{BaseDelay: 50 * time.Millisecond, MaxAttempts: 8})
	fin, err := cl2.WaitTerminal(ctx, "c1", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" || !fin.Resumed {
		t.Fatalf("resumed campaign: state=%q resumed=%v (%s)", fin.State, fin.Resumed, fin.Error)
	}
	if fin.Done != crashSpecRun {
		t.Fatalf("resumed campaign ran %d/%d rows", fin.Done, crashSpecRun)
	}
	// Everything completed before the kill is answered from the
	// store: the kill landed at row crashAt, so at least crashAt rows
	// were persisted (the acceptance floor).
	if fin.CacheHits < crashAt {
		t.Fatalf("resume replayed only %d rows from the store, want ≥ %d", fin.CacheHits, crashAt)
	}
	if fin.CacheMisses > int64(crashSpecRun-crashAt) {
		t.Fatalf("resume recomputed %d rows, want only the missing suffix ≤ %d",
			fin.CacheMisses, crashSpecRun-crashAt)
	}

	gotCSV, err := cl2.Artifact(ctx, "c1", "export.csv")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := cl2.Artifact(ctx, "c1", "export.json")
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, wantJSON := referenceExports(t)
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Fatal("resumed export.csv differs from an uninterrupted run's")
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("resumed export.json differs from an uninterrupted run's")
	}

	// And the restarted daemon's health shows a clean (not degraded)
	// store that actually loaded the pre-crash records.
	h, err := cl2.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz after recovery: %+v", h)
	}
	var sh sweep.StoreHealth
	if err := json.Unmarshal(h.Store, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.LoadedRecords < crashAt {
		t.Fatalf("store loaded %d records after the crash, want ≥ %d", sh.LoadedRecords, crashAt)
	}
}

// TestServeCrashRecoverySecondKill: recovery must itself be
// crash-safe — kill the resumed daemon mid-resume, restart again, and
// the third daemon still converges to the identical artifacts.
func TestServeCrashRecoverySecondKill(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cmd, base := startHelperDaemon(t, dir, 3)
	cl := client.New(base, client.Options{BaseDelay: 50 * time.Millisecond, MaxAttempts: 8})
	submitCrashing(ctx, t, cl, dir)
	cmd.Wait() // first kill, 3 rows in

	// Second daemon: resumes, then dies again. Resume counts rows
	// from zero, and the first 3 are instant store hits, so a sync
	// point of 8 kills it with ~5 fresh rows appended past the hits.
	cmd2, _ := startHelperDaemon(t, dir, 8)
	cmd2.Wait() // second kill — no client interaction needed; resume is autonomous

	_, base3 := startHelperDaemon(t, dir, 0)
	cl3 := client.New(base3, client.Options{BaseDelay: 50 * time.Millisecond, MaxAttempts: 8})
	fin, err := cl3.WaitTerminal(ctx, "c1", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" || fin.CacheHits < 8 {
		t.Fatalf("after two kills: state=%q hits=%d, want done with ≥8 store hits", fin.State, fin.CacheHits)
	}
	gotCSV, err := cl3.Artifact(ctx, "c1", "export.csv")
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, _ := referenceExports(t)
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Fatal("twice-interrupted export.csv differs from an uninterrupted run's")
	}
}

// TestServeStoreCorruptionRecovery: corrupt the store on disk between
// daemon lifetimes — truncate the newest segment mid-record — and the
// next daemon opens anyway, counts the damage on /healthz, serves
// every surviving row as a hit, and recomputes only the lost one with
// identical exports.
func TestServeStoreCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()

	// Lifetime one: run the campaign to completion in-process over a
	// durable store, exactly as main would wire it.
	cfg, err := openDurable(serverConfig{storeDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, cfg)
	st := submit(t, ts, crashSpec)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != stateDone {
		t.Fatalf("cold campaign ended %q", fin.State)
	}
	wantCSV := getBytes(t, ts, "/v1/campaigns/"+st.ID+"/export.csv")
	cfg.store.Close()

	// Truncate the tail of the last segment: one row lost mid-record.
	segs, err := filepath.Glob(filepath.Join(dir, "results", "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v, %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-20); err != nil {
		t.Fatal(err)
	}

	// Lifetime two: open degraded-gracefully, resubmit the same spec.
	cfg2, err := openDurable(serverConfig{storeDir: dir})
	if err != nil {
		t.Fatalf("corrupted store failed to open: %v", err)
	}
	if h := cfg2.store.Health(); h.CorruptRecords != 1 || h.LoadedRecords != crashSpecRun-1 {
		t.Fatalf("after truncation Health = %+v, want exactly 1 corrupt / %d loaded", h, crashSpecRun-1)
	}
	ts2 := newTestServer(t, cfg2)
	st2 := submit(t, ts2, crashSpec)
	fin2 := waitTerminal(t, ts2, st2.ID)
	if fin2.State != stateDone {
		t.Fatalf("resubmission over corrupted store ended %q", fin2.State)
	}
	if fin2.CacheHits != crashSpecRun-1 || fin2.CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want %d surviving rows served + exactly the 1 lost row recomputed",
			fin2.CacheHits, fin2.CacheMisses, crashSpecRun-1)
	}
	if got := getBytes(t, ts2, "/v1/campaigns/"+st2.ID+"/export.csv"); !bytes.Equal(got, wantCSV) {
		t.Fatal("export over a corrupted store differs from the intact run's")
	}
}

// TestServeJournalGarbageTolerated: fill the journal directory with
// garbage — binary junk, a half-written spec, a directory, an entry
// whose id contradicts its filename — alongside one genuine
// incomplete campaign. Recovery resumes the real one, skips the rest
// with a counted warning on /healthz, and never crashes.
func TestServeJournalGarbageTolerated(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	// The genuine interrupted submission a crashed daemon left.
	entry, _ := json.Marshal(journalEntry{ID: "c7", Spec: mustSpec(t, crashSpec)})
	writeJournalFile(t, jdir, "c7.campaign.json", string(entry))
	// And the garbage.
	writeJournalFile(t, jdir, "c3.campaign.json", `{"id":"c3","spec":{truncated-by-a-cra`)
	writeJournalFile(t, jdir, "c4.campaign.json", `{"id":"c999","spec":{}}`) // id ≠ filename
	writeJournalFile(t, jdir, "cX.done", "")                                 // unparseable id
	writeJournalFile(t, jdir, "README.txt", "not yours")
	writeJournalFile(t, jdir, "c5.campaign.json.tmp", "crash mid-record()")
	if err := os.WriteFile(filepath.Join(jdir, "junk.bin"), []byte{0xde, 0xad, 0xbe, 0xef}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(jdir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}

	cfg, err := openDurable(serverConfig{storeDir: dir})
	if err != nil {
		t.Fatalf("garbage-filled journal failed recovery open: %v", err)
	}
	if n := len(cfg.resume); n != 1 || cfg.resume[0].ID != "c7" {
		t.Fatalf("resume list = %+v, want exactly the genuine c7", cfg.resume)
	}
	ts := newTestServer(t, cfg)
	fin := waitTerminal(t, ts, "c7")
	if fin.State != stateDone || !fin.Resumed {
		t.Fatalf("genuine campaign among garbage: state=%q resumed=%v", fin.State, fin.Resumed)
	}
	// New ids never collide with journaled ones.
	st := submit(t, ts, `{"experiment":"fig8","reps":1,"seed":1,"workers":1}`)
	if n, _ := campaignID(st.ID); n <= 7 {
		t.Fatalf("fresh submission reused journaled id space: %q", st.ID)
	}
	// Let it finish: its terminal journal mark must not race TempDir's
	// cleanup of the journal directory.
	waitTerminal(t, ts, st.ID)
	var health struct {
		Journal journalHealth `json:"journal"`
	}
	if err := json.Unmarshal(getBytes(t, ts, "/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	// junk.bin, README.txt, subdir, the .tmp, cX.done, and the two
	// bad campaign files: 7 skipped warnings, no crash.
	if health.Journal.Skipped != 7 {
		t.Fatalf("journal skipped %d files, want 7 counted warnings", health.Journal.Skipped)
	}
}

// TestServeStoreDegradedMode: a disk write failure mid-service flips
// the store to memory-only; the campaign still completes, /healthz
// reports degraded with the reason, and the daemon keeps serving.
func TestServeStoreDegradedMode(t *testing.T) {
	var failing atomic.Bool
	st, err := sweep.OpenStore(filepath.Join(t.TempDir(), "results"), sweep.StoreOpts{
		WriteFault: func(op string) error {
			if failing.Load() {
				return fmt.Errorf("injected %s fault: no space left on device", op)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	failing.Store(true)
	ts := newTestServer(t, serverConfig{store: st})

	c := submit(t, ts, `{"experiment":"fig8","reps":1,"seed":42,"workers":2}`)
	fin := waitTerminal(t, ts, c.ID)
	if fin.State != stateDone {
		t.Fatalf("campaign over a failing disk ended %q (%s)", fin.State, fin.Error)
	}
	var health struct {
		Status string            `json:"status"`
		Store  sweep.StoreHealth `json:"store"`
	}
	if err := json.Unmarshal(getBytes(t, ts, "/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || !health.Store.Degraded {
		t.Fatalf("disk failure not surfaced: %+v", health)
	}
	if !strings.Contains(health.Store.DegradedReason, "no space left") {
		t.Fatalf("degraded reason %q lost the cause", health.Store.DegradedReason)
	}
	// Memory-only degraded mode still answers the repeat from cache.
	c2 := submit(t, ts, `{"experiment":"fig8","reps":1,"seed":42,"workers":2}`)
	fin2 := waitTerminal(t, ts, c2.ID)
	if fin2.State != stateDone || fin2.CacheMisses != 0 {
		t.Fatalf("degraded repeat: state=%q misses=%d, want all hits", fin2.State, fin2.CacheMisses)
	}
}

func mustSpec(t *testing.T, raw string) campaignSpec {
	t.Helper()
	var spec campaignSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func writeJournalFile(t *testing.T, dir, name, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
