package main

// The campaign journal makes submissions durable: a spec is written
// to disk before the daemon acknowledges it, and a terminal marker is
// written when the campaign finishes, so on restart the set
// {journaled} − {finished} is exactly the work a crash interrupted.
// Resuming is just re-running those specs — the result store turns
// every already-computed row into a cache hit, so a resumed campaign
// exports byte-identically to an uninterrupted one and recomputes
// only the missing suffix (the resume-equals-replay argument,
// DESIGN.md §13.1).
//
// Layout: <dir>/<id>.campaign.json holds {id, name, spec};
// <dir>/<id>.done holds {"state": ...}. Files the journal cannot
// parse — garbage, partial writes from a crash mid-journal, foreign
// droppings — are skipped with a counted warning, never a failed
// startup: losing one submission's durability must not take the
// service down with it. So is a spec naming a field this daemon does
// not have (an older daemon's "periods"): resuming it without that
// field would run a different campaign under the journaled id.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

type journalEntry struct {
	ID   string       `json:"id"`
	Name string       `json:"name"` // canonical experiment name ("" for load)
	Spec campaignSpec `json:"spec"`
}

type journal struct {
	dir string

	mu       sync.Mutex
	skipped  int    // undecodable journal files ignored at open
	writeErr string // first write failure: journaling is degraded
}

// journalHealth is the /healthz surface of the journal.
type journalHealth struct {
	Dir      string `json:"dir"`
	Skipped  int    `json:"skipped_files"`
	Degraded bool   `json:"degraded"`
	WriteErr string `json:"write_error,omitempty"`
}

// campaignID parses "c<n>" ids; ok is false for anything else.
func campaignID(id string) (n int, ok bool) {
	rest, found := strings.CutPrefix(id, "c")
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil && n > 0
}

// openJournal opens (creating if needed) the journal at dir and
// returns the incomplete entries in submission (id) order plus the
// highest id ever journaled, so the daemon's id sequence never reuses
// a journaled id. Unreadable entries are counted, not fatal; only an
// unusable directory fails the open.
func openJournal(dir string) (j *journal, incomplete []journalEntry, maxID int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("open journal: %w", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("open journal: %w", err)
	}
	j = &journal{dir: dir}
	finished := map[string]bool{}
	var entries []journalEntry
	for _, f := range files {
		if f.IsDir() {
			j.skipped++
			continue
		}
		name := f.Name()
		switch {
		case strings.HasSuffix(name, ".done"):
			if id := strings.TrimSuffix(name, ".done"); isCampaignFile(id) {
				finished[id] = true
			} else {
				j.skipped++
			}
		case strings.HasSuffix(name, ".campaign.json"):
			b, err := os.ReadFile(filepath.Join(dir, name))
			var e journalEntry
			if err != nil || json.Unmarshal(b, &e) != nil || !isCampaignFile(e.ID) ||
				e.ID != strings.TrimSuffix(name, ".campaign.json") {
				j.skipped++
				continue
			}
			if n, _ := campaignID(e.ID); n > maxID {
				maxID = n
			}
			strict := json.NewDecoder(bytes.NewReader(b))
			strict.DisallowUnknownFields()
			if strict.Decode(&journalEntry{}) != nil {
				j.skipped++
				continue
			}
			entries = append(entries, e)
		default:
			j.skipped++
		}
	}
	for _, e := range entries {
		if !finished[e.ID] {
			incomplete = append(incomplete, e)
		}
	}
	sort.Slice(incomplete, func(a, b int) bool {
		na, _ := campaignID(incomplete[a].ID)
		nb, _ := campaignID(incomplete[b].ID)
		return na < nb
	})
	return j, incomplete, maxID, nil
}

func isCampaignFile(id string) bool {
	_, ok := campaignID(id)
	return ok
}

// record journals one accepted submission, fsynced so acceptance
// survives a kill the moment the client sees 201. A write failure
// degrades journaling (surfaced via /healthz) instead of refusing the
// campaign: this process can still run it; only crash recovery is
// forfeit for this one entry.
func (j *journal) record(e journalEntry) {
	if j == nil {
		return
	}
	err := func() error {
		b, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(j.dir, e.ID+".campaign.json")
		tmp := path + ".tmp"
		f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(b); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}()
	if err != nil {
		j.mu.Lock()
		if j.writeErr == "" {
			j.writeErr = err.Error()
		}
		j.mu.Unlock()
	}
}

// finish marks one campaign terminal. A crash between reaching the
// terminal state and this marker re-resumes the campaign on restart —
// harmless, because every row is then a store hit and the re-run
// exports the identical bytes.
func (j *journal) finish(id, state string) {
	if j == nil {
		return
	}
	body := fmt.Sprintf("{\"state\":%q}\n", state)
	if err := os.WriteFile(filepath.Join(j.dir, id+".done"), []byte(body), 0o644); err != nil {
		j.mu.Lock()
		if j.writeErr == "" {
			j.writeErr = err.Error()
		}
		j.mu.Unlock()
	}
}

func (j *journal) health() *journalHealth {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return &journalHealth{
		Dir:      j.dir,
		Skipped:  j.skipped,
		Degraded: j.writeErr != "",
		WriteErr: j.writeErr,
	}
}
