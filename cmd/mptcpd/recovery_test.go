package main

// The service fault-injection suite: kill -9 the daemon mid-campaign
// at injected sync points, corrupt and truncate store segments on
// disk, fill the journal with garbage — and assert the
// restarted daemon recovers: resumes the interrupted campaign,
// replays the completed prefix from the store as cache hits, and
// exports byte-for-byte what an uninterrupted daemon exports.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
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

	"mptcplab/internal/sweep"
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
func submitCrashing(t *testing.T, base, dir string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(crashSpec))
	if err == nil {
		var st statusView
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && st.ID != "c1" {
			t.Fatalf("first submission got id %q (status %d)", st.ID, resp.StatusCode)
		}
	}
	if err != nil {
		if _, ok := journalRecord(t, dir, "c1"); !ok {
			t.Fatalf("submit failed (%v) with nothing journaled", err)
		}
	}
}

// journalRecord reads one record of the journal under the state
// directory dir, as the next daemon would open it.
func journalRecord(t *testing.T, dir, key string) ([]byte, bool) {
	t.Helper()
	js, err := sweep.OpenStore(filepath.Join(dir, "journal"), sweep.StoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return js.Get(key)
}

// referenceExports runs crashSpec uninterrupted on a fresh in-memory
// daemon and returns its artifacts — the byte-identity oracle.
func referenceExports(t *testing.T) (csv, jsonb []byte) {
	t.Helper()
	ts := newTestServer(t)
	st := submit(t, ts.URL, crashSpec)
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != stateDone {
		t.Fatalf("reference campaign ended %q (%s)", fin.State, fin.Error)
	}
	return getBytes(t, ts.URL, "/v1/campaigns/"+st.ID+"/export.csv"),
		getBytes(t, ts.URL, "/v1/campaigns/"+st.ID+"/export.json")
}

// TestServeCrashRecovery is the acceptance case the tentpole names: a
// campaign interrupted by SIGKILL at an injected sync point, then a
// restart over the same store/journal, must resume the campaign,
// answer the completed prefix from the store, and export CSV/JSON
// byte-identical to an uninterrupted run.
func TestServeCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	// Daemon one: armed to SIGKILL itself after crashAt rows.
	cmd, base := startHelperDaemon(t, dir, crashAt)
	submitCrashing(t, base, dir)
	// The injected sync point fires mid-campaign; the process dies by
	// its own SIGKILL — no drain, no terminal journal marker.
	if err := cmd.Wait(); err == nil {
		t.Fatal("daemon exited cleanly; the sync point never fired")
	}
	if state, ok := journalRecord(t, dir, "c1.done"); ok {
		t.Fatalf("killed daemon left a terminal marker (%q) — the campaign would not resume", state)
	}

	// Daemon two: same store and journal, no crash armed. It must
	// resume c1 on its own — no resubmission.
	_, base2 := startHelperDaemon(t, dir, 0)
	fin := waitTerminal(t, base2, "c1")
	if fin.State != stateDone || !fin.Resumed {
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

	gotCSV := getBytes(t, base2, "/v1/campaigns/c1/export.csv")
	gotJSON := getBytes(t, base2, "/v1/campaigns/c1/export.json")
	wantCSV, wantJSON := referenceExports(t)
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Fatal("resumed export.csv differs from an uninterrupted run's")
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("resumed export.json differs from an uninterrupted run's")
	}

	// And the restarted daemon's health shows a clean (not degraded)
	// store that actually loaded the pre-crash records.
	var health struct {
		Status string            `json:"status"`
		Store  sweep.StoreHealth `json:"store"`
	}
	if err := json.Unmarshal(getBytes(t, base2, "/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz after recovery: %+v", health)
	}
	if health.Store.LoadedRecords < crashAt {
		t.Fatalf("store loaded %d records after the crash, want ≥ %d", health.Store.LoadedRecords, crashAt)
	}
}

// TestServeCrashRecoverySecondKill: recovery must itself be
// crash-safe — kill the resumed daemon mid-resume, restart again, and
// the third daemon still converges to the identical artifacts.
func TestServeCrashRecoverySecondKill(t *testing.T) {
	dir := t.TempDir()

	cmd, base := startHelperDaemon(t, dir, 3)
	submitCrashing(t, base, dir)
	cmd.Wait() // first kill, 3 rows in

	// Second daemon: resumes, then dies again. Resume counts rows
	// from zero, and the first 3 are instant store hits, so a sync
	// point of 8 kills it with ~5 fresh rows appended past the hits.
	cmd2, _ := startHelperDaemon(t, dir, 8)
	cmd2.Wait() // second kill — no client interaction needed; resume is autonomous

	_, base3 := startHelperDaemon(t, dir, 0)
	fin := waitTerminal(t, base3, "c1")
	if fin.State != stateDone || fin.CacheHits < 8 {
		t.Fatalf("after two kills: state=%q hits=%d, want done with ≥8 store hits", fin.State, fin.CacheHits)
	}
	gotCSV := getBytes(t, base3, "/v1/campaigns/c1/export.csv")
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
	st := submit(t, ts.URL, crashSpec)
	fin := waitTerminal(t, ts.URL, st.ID)
	if fin.State != stateDone {
		t.Fatalf("cold campaign ended %q", fin.State)
	}
	wantCSV := getBytes(t, ts.URL, "/v1/campaigns/"+st.ID+"/export.csv")
	cfg.store.Close()

	// Truncate the last segment inside its last row's record: one row
	// lost mid-record. The campaign's export record follows that row at
	// the very end of the segment, so it goes too.
	segs, err := filepath.Glob(filepath.Join(dir, "results", "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v, %v", segs, err)
	}
	last := segs[len(segs)-1]
	if err := os.Truncate(last, int64(exportRecordStart(t, last)-20)); err != nil {
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
	st2 := submit(t, ts2.URL, crashSpec)
	fin2 := waitTerminal(t, ts2.URL, st2.ID)
	if fin2.State != stateDone {
		t.Fatalf("resubmission over corrupted store ended %q", fin2.State)
	}
	if fin2.CacheHits != crashSpecRun-1 || fin2.CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want %d surviving rows served + exactly the 1 lost row recomputed",
			fin2.CacheHits, fin2.CacheMisses, crashSpecRun-1)
	}
	if got := getBytes(t, ts2.URL, "/v1/campaigns/"+st2.ID+"/export.csv"); !bytes.Equal(got, wantCSV) {
		t.Fatal("export over a corrupted store differs from the intact run's")
	}
}

// TestServeJournalGarbageTolerated: fill the journal's store with
// garbage alongside one genuine incomplete campaign: a truncated tail,
// a CRC-flipped record, a spec that does not decode, an unknown-field
// spec, an entry whose id contradicts its key, keys that are not
// campaign ids, and a file of the retired one-file-per-campaign layout.
// Recovery resumes the real one, counts every damaged record on
// /healthz, never crashes, and never reuses a journaled id.
func TestServeJournalGarbageTolerated(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	js, err := sweep.OpenStore(jdir, sweep.StoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// The genuine interrupted submission a crashed daemon left.
	entry, _ := json.Marshal(journalEntry{ID: "c7", Spec: mustSpec(t, crashSpec)})
	js.Put("c7", entry)
	// And the garbage: records that pass the CRC but not the journal.
	js.Put("c3", []byte(`{"id":"c3","spec":{truncated-by-a-cra`))
	js.Put("c4", []byte(`{"id":"c999","spec":{}}`)) // id ≠ key
	// An older daemon's spec naming a field this one no longer has: not
	// resumed as some other campaign, but its id stays taken.
	js.Put("c9", []byte(`{"id":"c9","name":"fig8","spec":{"kind":"experiment","seed":1,"experiment":"fig8","periods":true}}`))
	js.Put("cX.done", []byte(stateDone)) // unparseable id
	js.Put("c05", entry)                 // not an id the daemon writes
	js.Put("README", []byte("not yours"))
	// A genuine spec whose record rots on disk: flipping its last byte
	// fails exactly its CRC.
	c8, _ := json.Marshal(journalEntry{ID: "c8", Spec: mustSpec(t, crashSpec)})
	js.Put("c8", c8)
	js.Close()
	segs, err := filepath.Glob(filepath.Join(jdir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("journal segments: %v, %v", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x01
	// Then the torn tail a kill mid-append leaves: a header and part of
	// its record.
	b = append(b, b[:20]...)
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	// The retired layout's file is not a segment: never read.
	writeJournalFile(t, jdir, "c12.campaign.json", string(entry))

	cfg, err := openDurable(serverConfig{storeDir: dir})
	if err != nil {
		t.Fatalf("garbage-filled journal failed recovery open: %v", err)
	}
	if n := len(cfg.resume); n != 1 || cfg.resume[0].ID != "c7" {
		t.Fatalf("resume list = %+v, want exactly the genuine c7", cfg.resume)
	}
	ts := newTestServer(t, cfg)
	fin := waitTerminal(t, ts.URL, "c7")
	if fin.State != stateDone || !fin.Resumed {
		t.Fatalf("genuine campaign among garbage: state=%q resumed=%v", fin.State, fin.Resumed)
	}
	// New ids never collide with journaled ones.
	st := submit(t, ts.URL, `{"experiment":"fig8","reps":1,"seed":1,"workers":1}`)
	if n, _ := campaignID(st.ID); n <= 9 {
		t.Fatalf("fresh submission reused journaled id space: %q", st.ID)
	}
	// Let it finish: its terminal journal mark must not race TempDir's
	// cleanup of the journal directory.
	waitTerminal(t, ts.URL, st.ID)
	var health struct {
		Status  string        `json:"status"`
		Journal journalHealth `json:"journal"`
	}
	if err := json.Unmarshal(getBytes(t, ts.URL, "/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	// The flipped c8 and the torn tail are the store's corrupt records;
	// c3, c4, c9, cX.done, c05 and README are the journal's skips.
	if health.Status != "ok" || health.Journal.CorruptRecords != 2 || health.Journal.Skipped != 6 {
		t.Fatalf("healthz = %+v, want ok with 2 corrupt records and 6 skipped entries", health)
	}
	names, err := filepath.Glob(filepath.Join(jdir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if base := filepath.Base(name); base != "c12.campaign.json" && !strings.HasPrefix(base, "seg-") {
			t.Errorf("the journal wrote %s, not a segment", base)
		}
	}
}

// TestServeJournalSyncFault: a journal whose fsync fails degrades, as a
// failing write does; the campaign still runs and exports, and
// /healthz says degraded with the cause.
func TestServeJournalSyncFault(t *testing.T) {
	js, err := sweep.OpenStore(filepath.Join(t.TempDir(), "journal"), sweep.StoreOpts{
		WriteFault: func(op string) error {
			if op == "sync" {
				return errors.New("injected sync fault: input/output error")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	var cfg serverConfig
	cfg.journal, cfg.resume, cfg.startID = openJournal(js)
	ts := newTestServer(t, cfg)
	const spec = `{"experiment":"fig8","reps":1,"seed":42,"workers":2}`
	c := submit(t, ts.URL, spec)
	if fin := waitTerminal(t, ts.URL, c.ID); fin.State != stateDone {
		t.Fatalf("campaign over a failing journal ended %q (%s)", fin.State, fin.Error)
	}
	var health struct {
		Status  string        `json:"status"`
		Journal journalHealth `json:"journal"`
	}
	if err := json.Unmarshal(getBytes(t, ts.URL, "/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || !health.Journal.Degraded ||
		!strings.Contains(health.Journal.DegradedReason, "sync fault") {
		t.Fatalf("sync failure not surfaced: %+v", health)
	}
	ref := newTestServer(t)
	want := getBytes(t, ref.URL, "/v1/campaigns/"+waitTerminal(t, ref.URL, submit(t, ref.URL, spec).ID).ID+"/export.csv")
	if got := getBytes(t, ts.URL, "/v1/campaigns/"+c.ID+"/export.csv"); !bytes.Equal(got, want) {
		t.Fatal("export.csv over a failing journal differs from an in-memory daemon's")
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

	c := submit(t, ts.URL, `{"experiment":"fig8","reps":1,"seed":42,"workers":2}`)
	fin := waitTerminal(t, ts.URL, c.ID)
	if fin.State != stateDone {
		t.Fatalf("campaign over a failing disk ended %q (%s)", fin.State, fin.Error)
	}
	var health struct {
		Status string            `json:"status"`
		Store  sweep.StoreHealth `json:"store"`
	}
	if err := json.Unmarshal(getBytes(t, ts.URL, "/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || !health.Store.Degraded {
		t.Fatalf("disk failure not surfaced: %+v", health)
	}
	if !strings.Contains(health.Store.DegradedReason, "no space left") {
		t.Fatalf("degraded reason %q lost the cause", health.Store.DegradedReason)
	}
	// Memory-only degraded mode still answers the repeat from cache.
	c2 := submit(t, ts.URL, `{"experiment":"fig8","reps":1,"seed":42,"workers":2}`)
	fin2 := waitTerminal(t, ts.URL, c2.ID)
	if fin2.State != stateDone || fin2.CacheMisses != 0 {
		t.Fatalf("degraded repeat: state=%q misses=%d, want all hits", fin2.State, fin2.CacheMisses)
	}
}

// exportRecordStart walks a segment's record framing and returns the
// offset of its last record, which must be the cold run's export: a
// decodable artifact set after exactly crashSpecRun row records.
func exportRecordStart(t *testing.T, seg string) int {
	t.Helper()
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	const header = 12 // [keyLen u32][valLen u32][crc u32], sweep.Store's framing
	var starts []int
	for off := 0; off+header <= len(b); {
		starts = append(starts, off)
		off += header + int(binary.LittleEndian.Uint32(b[off:])) + int(binary.LittleEndian.Uint32(b[off+4:]))
	}
	if len(starts) != crashSpecRun+1 {
		t.Fatalf("segment holds %d records, want %d rows and the export", len(starts), crashSpecRun+1)
	}
	start := starts[crashSpecRun]
	var set artifactSet
	if err := set.UnmarshalBinary(b[start+header+int(binary.LittleEndian.Uint32(b[start:])):]); err != nil {
		t.Fatalf("the segment's last record is not the export: %v", err)
	}
	return start
}

func mustSpec(t testing.TB, raw string) campaignSpec {
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
