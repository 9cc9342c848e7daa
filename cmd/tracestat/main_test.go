package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes: tracestat's positional arguments are its input, so it
// has no stray ones to refuse — but no capture at all, or a flag (it
// has none), is still exit 2 and one line; a capture it cannot read is
// exit 1; -h is the usage and exit 0.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no.pcap")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "tracestat: no capture given"},
		{[]string{"-v", "x.pcap"}, 2, "tracestat: flag provided but not defined: -v"},
		{[]string{missing}, 1, "tracestat: open " + missing},
		{[]string{"-h"}, 0, ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		line, rest, _ := strings.Cut(stderr.String(), "\n")
		if code != tc.code || rest != "" || !strings.HasPrefix(line, tc.want) || (tc.want == "") != (line == "") {
			t.Errorf("%q: exit %d, stderr %q; want %d and one line starting %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
		if wantOut := tc.code == 0; wantOut != (stdout.String() == usage+"\n") {
			t.Errorf("%q: stdout %q", tc.args, stdout.String())
		}
	}
}
