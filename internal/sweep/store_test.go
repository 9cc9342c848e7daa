package sweep

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTestStore(t *testing.T, dir string, opts StoreOpts) *Store {
	t.Helper()
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreRoundTrip: rows Put into one store come back — same bytes,
// same stats shape as Cache — from a reopened store on the same dir.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOpts{})
	rows := map[string]string{
		"aa:1": "row-one", "bb:2": "row-two", "cc:3": "",
	}
	for k, v := range rows {
		s.Put(k, []byte(v))
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	s.Close()

	r := openTestStore(t, dir, StoreOpts{})
	for k, v := range rows {
		got, ok := r.Get(k)
		if !ok || string(got) != v {
			t.Fatalf("reopened Get(%q) = %q, %v; want %q", k, got, ok, v)
		}
	}
	entries, hits, misses := r.Stats()
	if entries != len(rows) || hits != int64(len(rows)) || misses != 0 {
		t.Fatalf("Stats = (%d, %d, %d), want (%d, %d, 0)", entries, hits, misses, len(rows), len(rows))
	}
	h := r.Health()
	if h.LoadedRecords != len(rows) || h.CorruptRecords != 0 || h.Degraded {
		t.Fatalf("Health after clean reopen: %+v", h)
	}
}

// TestStoreGetReturnsCopy pins the satellite contract for both
// modes: mutating the slice Get returns must not poison later hits,
// while GetRef is the documented aliasing fast path.
func TestStoreGetReturnsCopy(t *testing.T) {
	backends := map[string]*Store{
		"memory": NewCache(),
		"disk":   openTestStore(t, t.TempDir(), StoreOpts{}),
	}
	for name, b := range backends {
		b.Put("k", []byte("pristine"))
		got, _ := b.Get("k")
		copy(got, "XXXXXXXX") // a hostile caller scribbles on the result
		again, _ := b.Get("k")
		if string(again) != "pristine" {
			t.Fatalf("%s: Get returned the live slice; later hit reads %q", name, again)
		}
		ref, _ := b.GetRef("k")
		later, _ := b.GetRef("k")
		if &ref[0] != &later[0] {
			t.Fatalf("%s: GetRef copied; it is documented zero-copy", name)
		}
	}
}

// TestStoreMemoryMode pins what a Store without a directory is: the
// memory cache — nothing on disk, and no operation degrades it.
func TestStoreMemoryMode(t *testing.T) {
	s := NewCache()
	s.Put("k", []byte("row"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Put("k2", []byte("row2"))
	if h := s.Health(); h.Dir != "" || h.Entries != 2 || h.Segments != 0 || h.Degraded {
		t.Fatalf("memory-mode Health = %+v", h)
	}
	if got, ok := s.Get("k2"); !ok || string(got) != "row2" {
		t.Fatalf("Get after Close = %q, %v", got, ok)
	}
}

// segmentFiles returns the store's segment paths in order.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestStoreCorruptRecordSkipped is the acceptance case: flip one byte
// inside the middle record's payload; the reopened store must skip
// exactly that record — counted, not fatal — and serve the others.
func TestStoreCorruptRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOpts{})
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("key-%d:0", i), []byte(fmt.Sprintf("value-%d", i)))
	}
	s.Close()

	segs := segmentFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, have %v", segs)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Walk the framing to the second record and corrupt its payload.
	rec0 := storeHeaderLen + int(binary.LittleEndian.Uint32(b[0:4])) + int(binary.LittleEndian.Uint32(b[4:8]))
	b[rec0+storeHeaderLen] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir, StoreOpts{})
	h := r.Health()
	if h.CorruptRecords != 1 || h.LoadedRecords != 2 || h.Entries != 2 {
		t.Fatalf("corrupt middle record: Health = %+v, want exactly 1 skipped, 2 served", h)
	}
	for _, i := range []int{0, 2} {
		got, ok := r.Get(fmt.Sprintf("key-%d:0", i))
		if !ok || string(got) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("record %d not served after sibling corruption: %q, %v", i, got, ok)
		}
	}
	if _, ok := r.Get("key-1:0"); ok {
		t.Fatal("the corrupted record was served")
	}
}

// TestStoreTruncatedTail: a kill mid-append leaves a ragged last
// record; reopening loads the intact prefix, counts one corruption,
// and keeps accepting writes on a fresh segment.
func TestStoreTruncatedTail(t *testing.T) {
	for _, cut := range []int{1, storeHeaderLen - 2} { // mid-payload, mid-header
		dir := t.TempDir()
		s := openTestStore(t, dir, StoreOpts{})
		s.Put("a:1", []byte("alpha"))
		s.Put("b:2", []byte("beta"))
		s.Close()

		seg := segmentFiles(t, dir)[0]
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-int64(len("beta"))-int64(cut)); err != nil {
			t.Fatal(err)
		}

		r := openTestStore(t, dir, StoreOpts{})
		h := r.Health()
		if h.LoadedRecords != 1 || h.CorruptRecords != 1 {
			t.Fatalf("cut=%d: Health = %+v, want 1 loaded + 1 truncated", cut, h)
		}
		if _, ok := r.Get("b:2"); ok {
			t.Fatalf("cut=%d: truncated record served", cut)
		}
		// Recovery keeps working: new writes land on a fresh segment
		// and survive another reopen alongside the old prefix.
		r.Put("c:3", []byte("gamma"))
		r.Close()
		rr := openTestStore(t, dir, StoreOpts{})
		for k, v := range map[string]string{"a:1": "alpha", "c:3": "gamma"} {
			if got, ok := rr.Get(k); !ok || string(got) != v {
				t.Fatalf("cut=%d: after recovery Get(%q) = %q, %v", cut, k, got, ok)
			}
		}
	}
}

// TestStoreGarbageHeaderAbandonsSegment: lengths beyond the framing
// bounds offer no resync point, so the rest of that segment is
// abandoned (one counted corruption) — but later segments still load.
func TestStoreGarbageHeaderAbandonsSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOpts{})
	s.Put("a:1", []byte("alpha"))
	s.Close()
	seg := segmentFiles(t, dir)[0]
	b, _ := os.ReadFile(seg)
	garbage := append(append([]byte(nil), b...), bytes.Repeat([]byte{0xff}, 40)...)
	if err := os.WriteFile(seg, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	// A later, intact segment written after the bad one.
	next := encodeRecord("b:2", []byte("beta"))
	if err := os.WriteFile(filepath.Join(dir, "seg-000099.log"), next, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir, StoreOpts{})
	h := r.Health()
	if h.LoadedRecords != 2 || h.CorruptRecords != 1 {
		t.Fatalf("Health = %+v, want both intact records + 1 abandonment", h)
	}
	if got, ok := r.Get("b:2"); !ok || string(got) != "beta" {
		t.Fatalf("later segment not loaded past the garbage one: %q, %v", got, ok)
	}
}

// TestStoreSegmentRotation: a tiny segment cap forces rotation; every
// record still loads across all segments on reopen, and new stores
// never append to an old file.
func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOpts{MaxSegmentBytes: 64})
	const n = 20
	for i := 0; i < n; i++ {
		s.Put(fmt.Sprintf("key-%02d:0", i), []byte(fmt.Sprintf("value-%02d", i)))
	}
	s.Close()
	if segs := segmentFiles(t, dir); len(segs) < 3 {
		t.Fatalf("64-byte cap over %d records produced only %v", n, segs)
	}
	r := openTestStore(t, dir, StoreOpts{MaxSegmentBytes: 64})
	entries, _, _ := r.Stats()
	if entries != n {
		t.Fatalf("reopen across rotated segments loaded %d/%d entries", entries, n)
	}
}

// TestStoreDegradedMode: the first write fault flips the store to
// memory-only — Puts keep serving this process, nothing crashes, and
// Health surfaces the reason. Exactly the disk-full story.
func TestStoreDegradedMode(t *testing.T) {
	dir := t.TempDir()
	var fail bool
	s := openTestStore(t, dir, StoreOpts{
		WriteFault: func(op string) error {
			if fail {
				return fmt.Errorf("injected %s fault: disk full", op)
			}
			return nil
		},
	})
	s.Put("durable:1", []byte("on disk"))
	fail = true
	s.Put("volatile:2", []byte("memory only"))
	if h := s.Health(); !h.Degraded || h.DegradedReason == "" {
		t.Fatalf("write fault did not degrade: %+v", h)
	}
	// Degraded mode still serves both rows in-process.
	for k, v := range map[string]string{"durable:1": "on disk", "volatile:2": "memory only"} {
		if got, ok := s.Get(k); !ok || string(got) != v {
			t.Fatalf("degraded Get(%q) = %q, %v", k, got, ok)
		}
	}
	entries, hits, _ := s.Stats()
	if entries != 2 || hits != 2 {
		t.Fatalf("degraded Stats = (%d, %d, _)", entries, hits)
	}
	s.Close()
	// Only the pre-fault row survived the process.
	r := openTestStore(t, dir, StoreOpts{})
	if _, ok := r.Get("durable:1"); !ok {
		t.Fatal("pre-fault row lost")
	}
	if _, ok := r.Get("volatile:2"); ok {
		t.Fatal("memory-only row resurrected from disk")
	}
}

// TestStoreDuplicatePutNotRelogged: re-Putting identical bytes (a
// resumed campaign absorbing a hit path that Puts anyway) must not
// grow the log.
func TestStoreDuplicatePutNotRelogged(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOpts{})
	s.Put("k:1", []byte("row"))
	seg := segmentFiles(t, dir)[0]
	fi, _ := os.Stat(seg)
	size := fi.Size()
	for i := 0; i < 10; i++ {
		s.Put("k:1", []byte("row"))
	}
	fi, _ = os.Stat(seg)
	if fi.Size() != size {
		t.Fatalf("identical re-Puts grew the log %d → %d bytes", size, fi.Size())
	}
}

// FuzzStoreOpen throws arbitrary bytes at the segment loader: opening
// must never panic or error, must serve every record it claims to
// have loaded, and must leave the store writable — recovery, not just
// survival. Wired into make fuzz-smoke.
func FuzzStoreOpen(f *testing.F) {
	valid := func(rows ...string) []byte {
		var b []byte
		for i, v := range rows {
			b = append(b, encodeRecord(fmt.Sprintf("fuzz-%d:%d", i, i), []byte(v))...)
		}
		return b
	}
	f.Add(valid("alpha", "beta", "gamma"))
	f.Add(valid("alpha")[:storeHeaderLen+3]) // truncated mid-record
	f.Add([]byte{})
	flipped := valid("alpha", "beta")
	flipped[storeHeaderLen] ^= 0x80
	f.Add(flipped)
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // implausible header
	huge := make([]byte, storeHeaderLen)
	binary.LittleEndian.PutUint32(huge[4:8], 1<<31-1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir, StoreOpts{})
		if err != nil {
			t.Fatalf("OpenStore must absorb arbitrary segment bytes, got %v", err)
		}
		defer s.Close()
		h := s.Health()
		if h.Degraded {
			t.Fatalf("open alone degraded the store: %+v", h)
		}
		if h.Entries > h.LoadedRecords {
			t.Fatalf("more entries (%d) than loaded records (%d)", h.Entries, h.LoadedRecords)
		}
		// Still writable after whatever the bytes were: round-trip a
		// fresh record through a reopen.
		s.Put("post-fuzz:1", []byte("still alive"))
		if s.Health().Degraded {
			t.Fatal("Put after fuzzed open degraded the store")
		}
		s.Close()
		r, err := OpenStore(dir, StoreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got, ok := r.Get("post-fuzz:1"); !ok || string(got) != "still alive" {
			t.Fatalf("post-fuzz write lost across reopen: %q, %v", got, ok)
		}
	})
}
