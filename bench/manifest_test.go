package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWL       `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestPerLayer `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// registryManifest renders the registry the way BENCHMARK.json must
// read.
func registryManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWL{w.Name, w.Why})
	}
	for _, d := range endToEndDefs {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, string(d.Better), d.Bound})
	}
	for _, d := range layerDefs {
		m.PerLayer = append(m.PerLayer, manifestPerLayer{d.Name, d.Unit, string(d.Better)})
	}
	return m
}

// TestManifestMatchesRegistry holds BENCHMARK.json and the registry in
// lockstep: every workload and metric the harness can emit is declared
// with the same unit, direction and bound, and nothing else is. (The
// harness in turn refuses to report a run whose metric names differ
// from the registry's, see checkNames.)
func TestManifestMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(raw))
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := registryManifest()
	if !reflect.DeepEqual(got, want) {
		wantJSON, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the registry in manifest.go; the registry renders as:\n%s", wantJSON)
	}
}

// TestRegistryWithinContract checks the registry against the limits
// the benchmark contract sets on names, units and counts.
func TestRegistryWithinContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	var setup *metricDef
	for i, d := range endToEndDefs {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEndDefs[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		t.Errorf("end-to-end metrics need setup_s in s, lower is better; have %+v", setup)
	} else {
		for _, d := range endToEndDefs {
			if d.Bound > setup.Bound {
				t.Errorf("%s has a larger bound (%g) than setup_s (%g)", d.Name, d.Bound, setup.Bound)
			}
		}
	}

	if n := len(layerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range layerDefs {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), layerDefs...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
	}
	for _, pkg := range cpuSharePkgs {
		if _, ok := findMetric(layerDefs, pkg+".cpu_share"); !ok {
			t.Errorf("no %s.cpu_share in the registry", pkg)
		}
	}
}
