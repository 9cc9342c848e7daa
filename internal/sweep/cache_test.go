package sweep

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Canonical config-hash stability: the same logical spec must produce
// the same key regardless of struct field declaration order, and
// regardless of whether it arrives as a struct or a map.
func TestKeyFieldOrderStability(t *testing.T) {
	type specAB struct {
		Clients int     `json:"clients"`
		Rate    float64 `json:"rate"`
		Sched   string  `json:"sched"`
	}
	type specBA struct {
		Sched   string  `json:"sched"`
		Rate    float64 `json:"rate"`
		Clients int     `json:"clients"`
	}
	a, err := Key(specAB{Clients: 40, Rate: 2.5, Sched: "minrtt"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Key(specBA{Sched: "minrtt", Rate: 2.5, Clients: 40}, 42)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Key(map[string]any{"sched": "minrtt", "clients": 40, "rate": 2.5}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != m {
		t.Fatalf("keys diverge for one logical spec:\n struct AB %s\n struct BA %s\n map       %s", a, b, m)
	}
}

// Process stability: the key is a pure function of the canonical JSON
// bytes, pinned here against a hand-written canonical encoding — no
// map iteration order, pointer value, or per-process state may leak
// into it.
func TestKeyPinnedAcrossProcesses(t *testing.T) {
	got, err := Key(map[string]any{"b": "x", "a": 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%x:7", sha256.Sum256([]byte(`{"a":1,"b":"x"}`)))
	if got != want {
		t.Fatalf("Key = %s, want pinned %s", got, want)
	}
}

// Distinct seeds never collide — the seed rides outside the hash, so
// this holds structurally, and distinct configs get distinct hashes.
func TestKeyDistinctness(t *testing.T) {
	desc := map[string]any{"clients": 40}
	seen := map[string]bool{}
	for seed := int64(-500); seed < 500; seed++ {
		k, err := Key(desc, seed)
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Fatalf("seed %d reused key %s", seed, k)
		}
		seen[k] = true
		if !strings.HasSuffix(k, fmt.Sprintf(":%d", seed)) {
			t.Fatalf("key %s does not carry seed %d outside the hash", k, seed)
		}
	}
	k1, _ := Key(map[string]any{"clients": 40}, 1)
	k2, _ := Key(map[string]any{"clients": 41}, 1)
	if k1 == k2 {
		t.Fatal("distinct configs share a key")
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache returned a hit")
	}
	val := []byte("row")
	c.Put("k", val)
	val[0] = 'X' // Put must have copied
	got, ok := c.Get("k")
	if !ok || string(got) != "row" {
		t.Fatalf("Get = %q, %v; want cached copy \"row\"", got, ok)
	}
	entries, hits, misses := c.Stats()
	if entries != 1 || hits != 1 || misses != 1 {
		t.Fatalf("Stats = (%d, %d, %d), want (1, 1, 1)", entries, hits, misses)
	}
}

// TestMemo pins the one cache protocol: a miss runs and stores, a hit
// does not re-run, a row keep rejects is never stored, an undecodable
// value is a miss and is overwritten, and an empty key never caches.
func TestMemo(t *testing.T) {
	type row struct {
		V  int  `json:"v"`
		OK bool `json:"ok"`
	}
	keep := func(r row) bool { return r.OK }
	st := NewCache()
	runs := 0
	run := func(r row) func() row {
		return func() row { runs++; return r }
	}
	step := func(what, key string, produce row, want row, wantHit bool, wantRuns int) {
		t.Helper()
		got, hit := Memo(st, key, keep, run(produce))
		if got != want || hit != wantHit || runs != wantRuns {
			t.Fatalf("%s: Memo = %+v hit=%v after %d runs; want %+v hit=%v after %d runs",
				what, got, hit, runs, want, wantHit, wantRuns)
		}
	}
	step("miss", "k", row{1, true}, row{1, true}, false, 1)
	step("hit", "k", row{2, true}, row{1, true}, true, 1)

	step("rejected row", "bad", row{3, false}, row{3, false}, false, 2)
	if _, ok := st.Get("bad"); ok {
		t.Fatal("a row keep rejected was stored")
	}
	step("rejected row again", "bad", row{4, true}, row{4, true}, false, 3)

	st.Put("junk", []byte("{not json"))
	step("garbage value", "junk", row{5, true}, row{5, true}, false, 4)
	step("garbage overwritten", "junk", row{6, true}, row{5, true}, true, 4)

	entries, _, _ := st.Stats()
	step("empty key", "", row{7, true}, row{7, true}, false, 5)
	step("empty key again", "", row{8, true}, row{8, true}, false, 6)
	if after, _, _ := st.Stats(); after != entries {
		t.Fatalf("an empty key stored something: %d -> %d entries", entries, after)
	}
}

// binRow has a binary form, as experiment.RunResult does: 'B' and one
// byte.
type binRow struct {
	V byte `json:"v"`
}

func (r *binRow) MarshalBinary() ([]byte, error) { return []byte{'B', r.V}, nil }

func (r *binRow) UnmarshalBinary(b []byte) error {
	if len(b) != 2 || b[0] != 'B' {
		return errors.New("not a binRow")
	}
	r.V = b[1]
	return nil
}

// TestMemoBinaryRows: a row type with a binary form is stored in it and
// read back only through it. Anything else, the JSON an earlier daemon
// stored included, is a miss that the binary form overwrites.
func TestMemoBinaryRows(t *testing.T) {
	st := NewCache()
	keep := func(binRow) bool { return true }
	runs := 0
	memo := func(key string, produce byte) (binRow, bool) {
		return Memo(st, key, keep, func() binRow { runs++; return binRow{produce} })
	}
	stored := func(key string) string { b, _ := st.Get(key); return string(b) }

	if got, hit := memo("k", 1); hit || got.V != 1 || stored("k") != "B\x01" {
		t.Fatalf("miss: %+v hit=%v, stored %q; want the binary form", got, hit, stored("k"))
	}
	if got, hit := memo("k", 2); !hit || got.V != 1 || runs != 1 {
		t.Fatalf("hit: %+v hit=%v after %d runs", got, hit, runs)
	}

	for _, junk := range []string{`{"v":9}`, "", "B", "Bxx", "{not json", "[1]", "\x00\x01"} {
		st.Put("junk", []byte(junk))
		before := runs
		if got, hit := memo("junk", 4); hit || got.V != 4 || runs != before+1 {
			t.Fatalf("%q: %+v hit=%v, %d runs; want a miss", junk, got, hit, runs-before)
		}
		if got, hit := memo("junk", 5); !hit || got.V != 4 || stored("junk") != "B\x04" {
			t.Fatalf("%q: not overwritten: %+v hit=%v, stored %q", junk, got, hit, stored("junk"))
		}
	}
}
