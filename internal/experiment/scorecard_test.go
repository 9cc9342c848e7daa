package experiment

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// scorecardPath is the committed scorecard, beside LEDGER_IDENTITY.
var scorecardPath = filepath.Join("..", "..", "SCORECARD.csv")

// TestScorecard regenerates SCORECARD.csv exactly as `make scorecard`
// does and requires the committed file byte for byte, and no row to
// fail. A change that moves a scored number regenerates the file in the
// same commit, and its diff is the change's effect on every claim.
func TestScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scored campaign at three seed families")
	}
	want, err := os.ReadFile(scorecardPath)
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := ParseCampaigns("all")
	scores, err := Scorecard(cs, CampaignOpts{Reps: 8, Seed: 1, SampleProfiles: true})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteScorecard(&got, scores); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("SCORECARD.csv is stale: run make scorecard and read its diff\n%s", got.Bytes())
	}
	for _, s := range scores {
		if s.Verdict == Fail {
			t.Errorf("%s fails: %v outside [%g, %g] at every seed family, and no ROADMAP item owns it", s.ID, s.Values, s.Lo, s.Hi)
		}
	}
}

// TestClaimTable holds the table to its own rules: unique ids, ordered
// bands, one numerator and at most two denominators, campaigns the
// registry has, and an owner that names ROADMAP items.
func TestClaimTable(t *testing.T) {
	ids := map[string]bool{}
	owner := regexp.MustCompile(`^(item \d+|items \d+(\+\d+)+)$`)
	for _, c := range Claims {
		if ids[c.ID] {
			t.Errorf("duplicate id %s", c.ID)
		}
		ids[c.ID] = true
		if !(c.Lo <= c.Hi) || len(c.Sels) == 0 || len(c.Sels) > 3 || (c.Owner != "" && !owner.MatchString(c.Owner)) {
			t.Errorf("%s: band [%g, %g], %d selectors, owner %q", c.ID, c.Lo, c.Hi, len(c.Sels), c.Owner)
		}
		for _, s := range c.Sels {
			if _, err := ParseCampaign(s.Campaign); err != nil || (s.Column == nil) == (s.Metric == "") {
				t.Errorf("%s: selector %s %s %s: column or metric, not both: %v", c.ID, s.Campaign, s.Config, s.Size, err)
			}
		}
	}
}

// TestScoreVerdicts drives the verdict logic over synthetic exports, no
// simulation: cell A's median is the family's value, B and C hold 4 and
// 8, and A's cellular RTT CCDF is 0.9 / 0.5 / 0.1 above 10 / 20 / 40 ms.
func TestScoreVerdicts(t *testing.T) {
	families := func(a [Families]float64) (fs [Families]family) {
		for i := range fs {
			fs[i] = family{[]CellExport{
				{Experiment: "x", Config: "A", SizeBytes: 1, TimeMedian: a[i]},
				{Experiment: "x", Config: "B", SizeBytes: 1, TimeMedian: 4},
				{Experiment: "x", Config: "C", SizeBytes: 1, TimeMedian: 8},
				{Experiment: "x", Config: "Z", SizeBytes: 1},
			}, []DistributionExport{{Experiment: "x", Config: "A", SizeBytes: 1, Metric: "rtt_cell_ms",
				Thresholds: []float64{10, 20, 40}, CCDF: []float64{0.9, 0.5, 0.1}}}}
		}
		return fs
	}
	a, b, c := med("x", "A", 1), med("x", "B", 1), med("x", "C", 1)
	for _, tc := range []struct {
		name  string
		claim Claim
		a     [Families]float64
		want  string // verdict, or "error"
		vals  [Families]float64
	}{
		{"on the lower edge", Claim{Lo: 1, Hi: 2, Sels: []Sel{a}}, [3]float64{1, 1, 1}, Pass, [3]float64{1, 1, 1}},
		{"on the upper edge", Claim{Lo: 1, Hi: 2, Sels: []Sel{a}}, [3]float64{2, 2, 2}, Pass, [3]float64{2, 2, 2}},
		{"just outside, unowned", Claim{Lo: 1, Hi: 2, Sels: []Sel{a}}, [3]float64{2.001, 0.999, 3}, Fail, [3]float64{2.001, 0.999, 3}},
		{"outside, owned", Claim{Lo: 1, Hi: 2, Owner: "item 3", Sels: []Sel{a}}, [3]float64{3, 3, 3}, Known, [3]float64{3, 3, 3}},
		{"inside, owned", Claim{Lo: 1, Hi: 2, Owner: "item 3", Sels: []Sel{a}}, [3]float64{1.5, 1.5, 1.5}, Pass, [3]float64{1.5, 1.5, 1.5}},
		{"families disagree", Claim{Lo: 1, Hi: 2, Owner: "item 3", Sels: []Sel{a}}, [3]float64{1.5, 3, 1.5}, Fragile, [3]float64{1.5, 3, 1.5}},
		{"ratio to the min of two", Claim{Hi: 1, Sels: []Sel{a, c, b}}, [3]float64{2, 4, 6}, Fragile, [3]float64{0.5, 1, 1.5}},
		{"ratio to one", Claim{Lo: 1, Hi: inf, Sels: []Sel{a, b}}, [3]float64{4, 8, 6}, Pass, [3]float64{1, 2, 1.5}},
		{"CCDF landmark", Claim{Hi: 0.5, Sels: []Sel{ccdf("x", "A", 1, "rtt_cell_ms", 15)}}, [3]float64{}, Pass, [3]float64{0.5, 0.5, 0.5}},
		{"CCDF on a threshold", Claim{Hi: 0.5, Sels: []Sel{ccdf("x", "A", 1, "rtt_cell_ms", 40)}}, [3]float64{}, Pass, [3]float64{0.1, 0.1, 0.1}},
		{"CCDF past the last threshold", Claim{Sels: []Sel{ccdf("x", "A", 1, "rtt_cell_ms", 41)}}, [3]float64{}, "error", [3]float64{}},
		{"missing cell", Claim{Sels: []Sel{med("x", "A", 2)}}, [3]float64{}, "error", [3]float64{}},
		{"missing denominator cell", Claim{Sels: []Sel{a, b, med("x", "D", 1)}}, [3]float64{1, 1, 1}, "error", [3]float64{}},
		{"missing distribution", Claim{Sels: []Sel{ccdf("x", "B", 1, "rtt_cell_ms", 15)}}, [3]float64{}, "error", [3]float64{}},
		{"zero denominator", Claim{Sels: []Sel{a, med("x", "Z", 1)}}, [3]float64{1, 1, 1}, "error", [3]float64{}},
	} {
		tc.claim.ID = tc.name
		s, err := score(tc.claim, families(tc.a))
		switch {
		case tc.want == "error":
			if err == nil {
				t.Errorf("%s: scored %v (%s), want an error", tc.name, s.Values, s.Verdict)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case s.Verdict != tc.want || s.Values != tc.vals:
			t.Errorf("%s: %v %s, want %v %s", tc.name, s.Values, s.Verdict, tc.vals, tc.want)
		}
	}
}

// requireGates requires each row to be an unowned row that passes in the
// committed SCORECARD.csv. Only such a row turns a regression into a
// fail at TestScorecard: out of band, an owned row is known, and a row
// the families disagree on is fragile. Giving a gate an owner, letting
// it go fragile or dropping it fails the test named for its behaviour.
func requireGates(t *testing.T, ids ...string) {
	t.Helper()
	f, err := os.Open(scorecardPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, r := range recs {
		rows[r[0]] = r
	}
	for _, id := range ids {
		// The last two columns are verdict and owner.
		if r := rows[id]; r == nil || r[len(r)-2] != Pass || r[len(r)-1] != "" {
			t.Errorf("%s is not an unowned passing row of SCORECARD.csv: %q", id, r)
		}
	}
}
