package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStdoutPinned holds the example's report — the 4 MB download over
// SP-WiFi, SP-Cell and MP-2 — to testdata/stdout.txt byte for byte, so
// a stack change that moves a printed number fails here.
func TestStdoutPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run(&buf)
	if got := buf.String(); got != string(want) {
		t.Errorf("stdout differs from testdata/stdout.txt:\n%s", got)
	}
}
