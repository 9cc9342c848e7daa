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
// The journal is a second sweep.Store, at <dir>/journal: an accepted
// spec is a record keyed by its campaign id ("c7", value {id, name,
// spec} as JSON), fsynced before the 201; a terminal state is a record
// keyed "<id>.done". Torn and corrupt records follow the Store's
// contract (skipped, counted in its health). A record the journal
// cannot use — a key that is not a campaign id, a spec that does not
// decode or whose id contradicts its key — is skipped with a counted
// warning, never a failed startup: losing one submission's durability
// must not take the service down with it. So is a spec naming a field
// this daemon does not have (an older daemon's "periods"): resuming it
// without that field would run a different campaign under the
// journaled id.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"sync"

	"mptcplab/internal/sweep"
)

type journalEntry struct {
	ID   string       `json:"id"`
	Name string       `json:"name"` // canonical experiment name ("" for load)
	Spec campaignSpec `json:"spec"`
}

type journal struct {
	st      *sweep.Store
	skipped int        // records that failed decoding at open
	mu      sync.Mutex // no Put, which may rotate the segment, between a record's Put and Sync
}

// journalHealth is the /healthz surface of the journal.
type journalHealth struct {
	sweep.StoreHealth
	Skipped int `json:"skipped_entries"`
}

// campaignID parses "c<n>" ids as the daemon writes them; ok is false
// for anything else.
func campaignID(id string) (n int, ok bool) {
	rest, found := strings.CutPrefix(id, "c")
	n, err := strconv.Atoi(rest)
	return n, found && err == nil && n > 0 && strconv.Itoa(n) == rest
}

// openJournal reads the journal st holds in one pass over its keys and
// returns the incomplete entries in submission (id) order plus the
// highest id any key names, so the daemon's id sequence never reuses a
// journaled id.
func openJournal(st *sweep.Store) (j *journal, incomplete []journalEntry, maxID int) {
	j = &journal{st: st}
	finished := map[string]bool{}
	st.Range(func(key string, val []byte) {
		id, done := strings.CutSuffix(key, ".done")
		n, ok := campaignID(id)
		if !ok {
			j.skipped++
			return
		}
		maxID = max(maxID, n)
		if done {
			finished[id] = true
			return
		}
		var e journalEntry
		dec := json.NewDecoder(bytes.NewReader(val))
		dec.DisallowUnknownFields()
		if dec.Decode(&e) != nil || e.ID != key {
			j.skipped++
			return
		}
		incomplete = append(incomplete, e)
	})
	incomplete = slices.DeleteFunc(incomplete, func(e journalEntry) bool { return finished[e.ID] })
	slices.SortFunc(incomplete, func(a, b journalEntry) int {
		na, _ := campaignID(a.ID)
		nb, _ := campaignID(b.ID)
		return cmp.Compare(na, nb)
	})
	return j, incomplete, maxID
}

// record journals one accepted submission, fsynced so acceptance
// survives a kill the moment the client sees 201. A write or sync
// failure degrades the journal's store (surfaced via /healthz) instead
// of refusing the campaign: this process can still run it; only crash
// recovery is forfeit.
func (j *journal) record(e journalEntry) {
	if j == nil {
		return
	}
	b, _ := json.Marshal(e) // a spec decoded from JSON always encodes
	j.mu.Lock()
	defer j.mu.Unlock()
	j.st.Put(e.ID, b)
	j.st.Sync()
}

// finish marks one campaign terminal. A crash between reaching the
// terminal state and this marker re-resumes the campaign on restart —
// harmless, because every row is then a store hit and the re-run
// exports the identical bytes.
func (j *journal) finish(id, state string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.st.Put(id+".done", []byte(state))
}

func (j *journal) health() *journalHealth {
	if j == nil {
		return nil
	}
	return &journalHealth{StoreHealth: j.st.Health(), Skipped: j.skipped}
}
