package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"mptcplab/internal/sweep"
)

// TestServeExportMemo: a repeat submission is answered from the store
// exports included. The cold run adds its rows and one export record;
// the warm one, at another worker count, adds nothing, looks up every
// row and the export as hits, still counts rows only in its status, and
// publishes the cold run's bytes.
func TestServeExportMemo(t *testing.T) {
	st := sweep.NewCache()
	ts := newTestServer(t, serverConfig{store: st})
	for _, tc := range []struct {
		cold, warm string
		artifacts  []string
	}{
		{
			`{"experiment":"fig8","reps":1,"seed":42,"workers":2}`,
			`{"experiment":"fig8","reps":1,"seed":42,"workers":1}`,
			[]string{"export.csv", "export.json"},
		},
		{
			`{"kind":"load","base":"clients=8,flows=12,dur=5s,chaos=outage:path=wifi;at=1s;dur=1s","rates":[3,6],"reps":1,"seed":7,"workers":2}`,
			`{"kind":"load","base":"clients=8,flows=12,dur=5s,chaos=outage:path=wifi;at=1s;dur=1s","rates":[3,6],"reps":1,"seed":7}`,
			[]string{"export.csv", "export.json", "resilience.csv", "resilience.json"},
		},
	} {
		entries0, _, _ := st.Stats()
		cold := waitTerminal(t, ts.URL, submit(t, ts.URL, tc.cold).ID)
		entries1, hits1, _ := st.Stats()
		if cold.State != stateDone || cold.CacheHits != 0 || cold.CacheMisses != int64(cold.Total) {
			t.Fatalf("%s cold: state=%q hits=%d misses=%d of %d rows", cold.Kind, cold.State, cold.CacheHits, cold.CacheMisses, cold.Total)
		}
		if added := entries1 - entries0; added != cold.Total+1 {
			t.Errorf("%s cold run added %d store entries, want its %d rows and one export", cold.Kind, added, cold.Total)
		}

		warm := waitTerminal(t, ts.URL, submit(t, ts.URL, tc.warm).ID)
		entries2, hits2, _ := st.Stats()
		if warm.State != stateDone || warm.CacheHits != int64(warm.Total) || warm.CacheMisses != 0 || warm.Total != cold.Total {
			t.Fatalf("%s warm: state=%q hits=%d misses=%d of %d rows, want every one of %d a hit",
				warm.Kind, warm.State, warm.CacheHits, warm.CacheMisses, warm.Total, cold.Total)
		}
		if entries2 != entries1 {
			t.Errorf("%s warm run added %d store entries, want none", warm.Kind, entries2-entries1)
		}
		if got := hits2 - hits1; got != int64(warm.Total)+1 {
			t.Errorf("%s warm run hit the store %d times, want its %d rows and the export", warm.Kind, got, warm.Total)
		}
		for _, name := range tc.artifacts {
			want := getBytes(t, ts.URL, "/v1/campaigns/"+cold.ID+"/"+name)
			if got := getBytes(t, ts.URL, "/v1/campaigns/"+warm.ID+"/"+name); !bytes.Equal(got, want) {
				t.Errorf("%s warm %s differs from the cold one", warm.Kind, name)
			}
		}
	}
}

// TestServeExportKeyNotCached: the export key is a function of the spec
// without Workers and of the set of row keys, whatever order the rows
// completed in; a campaign whose export could differ from that function
// (cancelled, a failed row, a row the runner failed outside record, a
// row without a key) gets "", which sweep.Memo never caches.
func TestServeExportKeyNotCached(t *testing.T) {
	campaign := func(workers int, keys ...string) *campaignState {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		c := &campaignState{ctx: ctx, cancel: cancel,
			spec: campaignSpec{Kind: kindLoad, Seed: 7, Reps: 2, Workers: workers}}
		for _, k := range keys {
			c.record(k, false, false, struct{}{})
		}
		c.progress(len(keys), len(keys))
		return c
	}
	want := campaign(1, "a:1", "b:2").exportKey()
	if want == "" {
		t.Fatal("a healthy campaign has no export key")
	}
	if got := campaign(4, "b:2", "a:1").exportKey(); got != want {
		t.Errorf("worker count or completion order moved the export key: %s, want %s", got, want)
	}
	reseeded := campaign(1, "a:1", "b:2")
	reseeded.spec.Seed = 8
	if reseeded.exportKey() == want {
		t.Error("a different spec over the same rows shares the export key")
	}

	cancelled := campaign(1, "a:1", "b:2")
	cancelled.cancel()
	failed := campaign(1, "a:1")
	failed.record("b:2", false, true, struct{}{})
	failed.progress(2, 2)
	unrecorded := campaign(1, "a:1")
	unrecorded.progress(2, 2)
	for name, c := range map[string]*campaignState{
		"cancelled":  cancelled,
		"failed row": failed,
		"unrecorded": unrecorded,
		"unkeyed":    campaign(1, "a:1", ""),
		"empty":      campaign(1),
	} {
		if k := c.exportKey(); k != "" {
			t.Errorf("%s campaign: export key %s, want \"\"", name, k)
		}
	}
}

// TestServeExportRecordDamaged: an export record that does not decode
// is a miss — the artifacts are rendered again, byte-identically, and
// the record is rewritten — while the rows stay 100 % hits.
func TestServeExportRecordDamaged(t *testing.T) {
	st := sweep.NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	srv := newServer(ctx, serverConfig{store: st})
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() { cancel(); ts.Close() })
	const spec = `{"experiment":"fig8","reps":1,"seed":42,"workers":2}`

	cold := waitTerminal(t, ts.URL, submit(t, ts.URL, spec).ID)
	srv.mu.Lock()
	key := srv.campaigns[cold.ID].exportKey()
	srv.mu.Unlock()
	good, ok := st.Get(key)
	if key == "" || !ok {
		t.Fatalf("cold campaign stored no export record under %q", key)
	}
	wantCSV := getBytes(t, ts.URL, "/v1/campaigns/"+cold.ID+"/export.csv")
	wantJSON := getBytes(t, ts.URL, "/v1/campaigns/"+cold.ID+"/export.json")

	for name, bad := range map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-1],
		"trailing":  append(bytes.Clone(good), 0),
		"version":   append([]byte{0x02}, good[1:]...),
		"json":      []byte(`{"export.csv":"eA==","export.json":"eA=="}`),
	} {
		st.Put(key, bad)
		warm := waitTerminal(t, ts.URL, submit(t, ts.URL, spec).ID)
		if warm.State != stateDone || warm.CacheHits != int64(warm.Total) || warm.CacheMisses != 0 {
			t.Fatalf("%s record: state=%q hits=%d misses=%d of %d rows", name, warm.State, warm.CacheHits, warm.CacheMisses, warm.Total)
		}
		if !bytes.Equal(getBytes(t, ts.URL, "/v1/campaigns/"+warm.ID+"/export.csv"), wantCSV) ||
			!bytes.Equal(getBytes(t, ts.URL, "/v1/campaigns/"+warm.ID+"/export.json"), wantJSON) {
			t.Errorf("%s record: the re-rendered exports differ from the cold ones", name)
		}
		if got, _ := st.Get(key); !bytes.Equal(got, good) {
			t.Errorf("%s record was not rewritten", name)
		}
	}
}

// TestServeArtifactSetCodec: a set round-trips, its encoding opens with
// its version byte, and no strict prefix of it decodes.
func TestServeArtifactSetCodec(t *testing.T) {
	set := artifactSet{
		"export.csv":      []byte("a,b\n1,2\n"),
		"export.json":     []byte(`{"cells":[]}` + "\n"),
		"resilience.csv":  {},
		"resilience.json": []byte(strings.Repeat("x", 300)),
	}
	b, err := set.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != artifactSetV1 {
		t.Fatalf("encoding opens with %#x, not its version byte", b[0])
	}
	var got artifactSet
	if err := got.UnmarshalBinary(b); err != nil || len(got) != len(set) {
		t.Fatalf("round trip: %d artifacts, %v", len(got), err)
	}
	for name, body := range set {
		if !bytes.Equal(got[name], body) {
			t.Errorf("%s: %q, want %q", name, got[name], body)
		}
	}
	for n := range b {
		var prefix artifactSet
		if prefix.UnmarshalBinary(b[:n]) == nil {
			t.Errorf("a %d-byte prefix of a %d-byte set decodes", n, len(b))
		}
	}
}
