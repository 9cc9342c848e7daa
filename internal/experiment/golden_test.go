package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenSmallFlowsExports pins the campaign exports byte-for-byte,
// for any worker count: parallelism schedules work, it must not change
// results, and the armed checker must observe without perturbing. The
// fixtures change only when protocol behavior intentionally changes:
// regenerate by writing these same campaign exports to testdata/.
func TestGoldenSmallFlowsExports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full SmallFlows campaigns")
	}
	wantCSV, err := os.ReadFile(filepath.Join("testdata", "golden_smallflows_seed42_reps2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := os.ReadFile(filepath.Join("testdata", "golden_smallflows_seed42_reps2.json"))
	if err != nil {
		t.Fatal(err)
	}

	// SelfCheck arms the full invariant layer on every run. The exports
	// must still match the fixtures byte for byte — proof the checker
	// observes without perturbing — and no run may violate an invariant.
	for _, workers := range []int{1, 4} {
		m := SmallFlows(CampaignOpts{Reps: 2, Seed: 42, SampleProfiles: true, Workers: workers, SelfCheck: true})

		if m.TotalViolations != 0 {
			t.Errorf("workers=%d: %d protocol-invariant violations, first: %s",
				workers, m.TotalViolations, m.FirstViolation)
		}

		var csvBuf bytes.Buffer
		if err := WriteCSV(&csvBuf, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvBuf.Bytes(), wantCSV) {
			t.Errorf("workers=%d: CSV export differs from pre-pooling golden fixture", workers)
		}

		var jsonBuf bytes.Buffer
		if err := WriteJSON(&jsonBuf, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBuf.Bytes(), wantJSON) {
			t.Errorf("workers=%d: JSON export differs from pre-pooling golden fixture", workers)
		}
	}
}

// TestExportFirstAndSecondPinned pins a quirk performance work must not
// disturb: Matrix.Export is not idempotent in the last float bits. A
// mean sums in storage order and the first quantile sorts in place, so
// a pooled sample's mean is summed in absorb order by the first export
// and in ascending order by every later one. Each export has its own
// fixture (the second is the golden JSON, which TestGoldenSmallFlowsExports
// writes after the CSV), so a change to the order samples are stored
// in, or to when they are first sorted, fails here whichever export it
// moves. ROADMAP item 1's recalibration PR makes Export idempotent and
// deletes this test with the quirk.
func TestExportFirstAndSecondPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full SmallFlows campaign")
	}
	m := SmallFlows(CampaignOpts{Reps: 2, Seed: 42, SampleProfiles: true, Workers: 4})
	var exports [2]bytes.Buffer
	for i, name := range []string{"golden_smallflows_seed42_reps2_first.json", "golden_smallflows_seed42_reps2.json"} {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&exports[i], m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(exports[i].Bytes(), want) {
			t.Errorf("export %d of the matrix differs from testdata/%s", i+1, name)
		}
	}
	if bytes.Equal(exports[0].Bytes(), exports[1].Bytes()) {
		t.Error("first and second export agree: the quirk is gone, and so should this test and its fixture be")
	}
}
