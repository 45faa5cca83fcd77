package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRuns holds fedgen's command lines to their exit status, stdout and
// stderr: a written file verifies, -vtime prints the profile, and each
// mistake is refused with 2 for a flag the set rejects and 1 for the
// rest.
func TestRuns(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "synthetic.fed")
	missing := filepath.Join(dir, "no", "such", "dir")
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"-out", out, "-scale", "0.05"}, 0, "wrote " + out, ""},
		{[]string{"-verify", out}, 0, "ok: ", ""},
		{[]string{"-vtime", "-scale", "0.05", "-epochs", "4"}, 0, "suggested ext-vtime knobs: -vtime-deadline ", ""},
		{nil, 1, "", "fedgen: -out is required (or -vtime for a latency profile)"},
		{[]string{"-verify", missing}, 1, "", "fedgen: datafile: open " + missing},
		{[]string{"-out", out, "-workload", "no-such-workload"}, 1, "", `fedgen: experiments: unknown workload "no-such-workload"`},
		{[]string{"-out", missing, "-scale", "0.05"}, 1, "", "fedgen: datafile: open " + filepath.Dir(missing)},
		{[]string{"-no-such-flag"}, 2, "", "flag provided but not defined: -no-such-flag"},
		{[]string{"-h"}, 0, "", "Usage of fedgen"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("fedgen %s: exit %d, stdout %q, stderr %q; want exit %d, stdout containing %q, stderr containing %q",
				strings.Join(tc.args, " "), code, stdout.String(), stderr.String(), tc.code, tc.stdout, tc.stderr)
		}
	}
}
