package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "pass", StartNS: 0, EndNS: 100},
		// Two children running side by side on two workers cover
		// [10,60), not 40+40.
		{ID: 2, Parent: 1, Name: "run", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Name: "run", StartNS: 20, EndNS: 60},
		// A child that outlives its parent is clipped to it.
		{ID: 4, Parent: 1, Name: "export", StartNS: 90, EndNS: 120},
		// A grandchild comes off its parent only.
		{ID: 5, Parent: 2, Name: "step", StartNS: 15, EndNS: 25},
	}
	fillSelfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 40 - 10, 3: 40, 4: 30, 5: 10}
	for _, s := range spans {
		if s.SelfNS != want[s.ID] {
			t.Errorf("span %d (%s): self %d ns, want %d", s.ID, s.Name, s.SelfNS, want[s.ID])
		}
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	tr.setPass(3)
	id := tr.begin(0, "x")
	tr.end(id)
	if id != 0 || tr.finish() != nil {
		t.Errorf("a nil tracer recorded something")
	}
}

func TestTracerRecordsAndFlushes(t *testing.T) {
	tr := newTracer()
	tr.setPass(2)
	root := tr.begin(0, "pass")
	kid := tr.begin(root, "experiment.run")
	tr.end(kid)
	tr.end(root)
	spans := tr.finish()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Pass != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].SelfNS+spans[1].SelfNS != spans[0].EndNS-spans[0].StartNS {
		t.Errorf("self times %d + %d do not add up to the root's %d ns",
			spans[0].SelfNS, spans[1].SelfNS, spans[0].EndNS-spans[0].StartNS)
	}
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"name":"experiment.run"`) || !strings.Contains(lines[1], `"parent":1`) {
		t.Errorf("span file:\n%s", b)
	}
}
