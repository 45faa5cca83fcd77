package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRuns holds fedgen's command lines to their exit status, stdout and
// stderr: a workload prints its Table 1 row, -vtime prints the profile,
// and each mistake is refused with 2 for a flag the set rejects and 1 for
// the rest.
func TestRuns(t *testing.T) {
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"-scale", "0.05"}, 0, "Synthetic(1,1) devices=30    samples=", ""},
		{[]string{"-workload", "mnist", "-scale", "0.05"}, 0, "MNIST        devices=50    samples=", ""},
		{[]string{"-workload", "sent140", "-scale", "0.05"}, 0, "Sent140      devices=39    samples=", ""},
		{[]string{"-vtime", "-scale", "0.05", "-epochs", "4"}, 0, "suggested ext-vtime knobs: -vtime-deadline ", ""},
		{[]string{"-workload", "no-such-workload"}, 1, "", `fedgen: experiments: unknown workload "no-such-workload"`},
		{[]string{"-out", "synthetic.fed"}, 2, "", "flag provided but not defined: -out"},
		{[]string{"-verify", "synthetic.fed"}, 2, "", "flag provided but not defined: -verify"},
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
