package experiment

import (
	"bytes"
	"io"
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

// TestMobilityExportsPinned holds the mobility campaign, whose WiFi
// outage is a chaos schedule, to exports generated while it was two raw
// link-down timers: the monitor's ticks only read state, and the extra
// events take tie-break numbers after every event they could tie with.
func TestMobilityExportsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Mobility campaigns")
	}
	for _, workers := range []int{1, 4} {
		m := Mobility(CampaignOpts{Reps: 1, Seed: 42, SampleProfiles: true, Workers: workers})
		for _, f := range []struct {
			name  string
			write func(io.Writer, ...*Matrix) error
		}{
			{"golden_mobility_seed42_reps1.csv", WriteCSV},
			{"golden_mobility_seed42_reps1.json", WriteJSON},
		} {
			want, err := os.ReadFile(filepath.Join("testdata", f.name))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := f.write(&got, m); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("workers=%d: export differs from testdata/%s", workers, f.name)
			}
		}
	}
}

// TestExportIdempotent: exporting a matrix does not change what the
// next export says. Every pooled sample's order statistics are taken
// before its mean, so the first export already sums sorted values and
// both forms, written twice, match the goldens each time.
func TestExportIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full SmallFlows campaign")
	}
	m := SmallFlows(CampaignOpts{Reps: 2, Seed: 42, SampleProfiles: true, Workers: 4})
	for _, f := range []struct {
		name  string
		write func(io.Writer, ...*Matrix) error
	}{
		{"golden_smallflows_seed42_reps2.json", WriteJSON},
		{"golden_smallflows_seed42_reps2.csv", WriteCSV},
		{"golden_smallflows_seed42_reps2.json", WriteJSON},
		{"golden_smallflows_seed42_reps2.csv", WriteCSV},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", f.name))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := f.write(&got, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("an export of the matrix differs from testdata/%s", f.name)
		}
	}
}
