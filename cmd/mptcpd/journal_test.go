package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mptcplab/internal/sweep"
)

// FuzzJournalOpen writes arbitrary keys and values, then arbitrary
// bytes, into a journal segment. openJournal must return only entries
// whose id parses and whose spec decodes strictly, a highest id at
// least as large as every id key, and must leave a journal that reads
// back, on the next open, a record written after it. Wired into make
// fuzz-smoke.
func FuzzJournalOpen(f *testing.F) {
	good, _ := json.Marshal(journalEntry{ID: "c7", Name: "fig8", Spec: mustSpec(f, `{"experiment":"fig8","reps":2,"seed":42}`)})
	f.Add("c7", good, "c7.done", []byte(stateDone), []byte{})
	f.Add("c7", good, "c12.done", []byte(stateCancelled), []byte{})
	f.Add("c7", good, "c9", []byte(`{"id":"c9","spec":{"periods":true}}`), []byte{})
	f.Add("c4", []byte(`{"id":"c999","spec":{}}`), "cX.done", []byte{}, good[:9])
	f.Add("c05", good, "c+5", good, []byte{0xff, 0xff, 0xff, 0xff})
	f.Add("c9223372036854775807", good, "c7", good, []byte{})

	f.Fuzz(func(t *testing.T, k1 string, v1 []byte, k2 string, v2 []byte, tail []byte) {
		dir := t.TempDir()
		st := openJournalStore(t, dir)
		st.Put(k1, v1)
		st.Put(k2, v2)
		st.Close()
		seg := filepath.Join(dir, "seg-000001.log")
		b, _ := os.ReadFile(seg)
		if err := os.WriteFile(seg, append(b, tail...), 0o644); err != nil {
			t.Fatal(err)
		}

		st = openJournalStore(t, dir)
		j, incomplete, maxID := openJournal(st)
		for _, key := range []string{k1, k2} {
			id, _ := strings.CutSuffix(key, ".done")
			if n, ok := campaignID(id); ok && n > maxID {
				t.Fatalf("key %q names id %d beyond the highest id %d", key, n, maxID)
			}
		}
		for _, e := range incomplete {
			if _, ok := campaignID(e.ID); !ok {
				t.Fatalf("entry with id %q returned", e.ID)
			}
			val, _ := st.Get(e.ID)
			dec := json.NewDecoder(bytes.NewReader(val))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&journalEntry{}); err != nil {
				t.Fatalf("entry %q returned whose spec does not decode strictly: %v", e.ID, err)
			}
		}
		if maxID == math.MaxInt {
			return // no id left to journal next
		}

		next := journalEntry{ID: "c" + strconv.Itoa(maxID+1), Name: "fig8", Spec: campaignSpec{Experiment: "fig8"}}
		j.record(next)
		st.Close()
		_, incomplete, maxID2 := openJournal(openJournalStore(t, dir))
		if maxID2 != maxID+1 || !slices.ContainsFunc(incomplete, func(e journalEntry) bool { return e.ID == next.ID }) {
			t.Fatalf("record %s written after the open is not read back: highest id %d, incomplete %+v", next.ID, maxID2, incomplete)
		}
	})
}

func openJournalStore(t *testing.T, dir string) *sweep.Store {
	t.Helper()
	st, err := sweep.OpenStore(dir, sweep.StoreOpts{})
	if err != nil {
		t.Fatalf("journal store open: %v", err)
	}
	return st
}
