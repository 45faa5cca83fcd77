package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldens holds summary and diff, through run, to committed output
// over committed traces:
//   - vtime.jsonl is `fedbench -exp ext-vtime -fast -rounds 2 -trace`:
//     six runs, sync with policy drops, async and buffered;
//   - tiered.jsonl is the first tree run (fan-out 8, depth 1) of
//     `fedbench -exp ext-hier -fast -rounds 2 -trace`;
//   - ties.jsonl is written by hand: one round of 8 devices, each with
//     one reply 1 s long, so the straggler list is all ties.
//
// Each diff compares a trace with a copy that has one field changed.
// A golden is edited by hand, with the change that moves it.
func TestGoldens(t *testing.T) {
	dir := t.TempDir()
	changed := filepath.Join(dir, "changed.jsonl")
	for _, tc := range []struct {
		golden string
		args   []string
		code   int
		// old and new name the field edit the diff's second trace gets.
		trace, old, new string
	}{
		{golden: "vtime.summary", args: []string{"summary", "testdata/vtime.jsonl"}},
		{golden: "tiered.summary", args: []string{"summary", "testdata/tiered.jsonl"}},
		{golden: "ties.summary", args: []string{"summary", "testdata/ties.jsonl"}},
		{golden: "vtime.diff", args: []string{"diff", "testdata/vtime.jsonl", changed}, code: 1,
			trace: "testdata/vtime.jsonl", old: `"secs":10.047193777733813`, new: `"secs":10.5`},
		{golden: "tiered.diff", args: []string{"diff", "testdata/tiered.jsonl", changed}, code: 1,
			trace: "testdata/tiered.jsonl", old: `"loss":1.61447058596634,`, new: `"loss":1.7,`},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			if tc.trace != "" {
				b, err := os.ReadFile(tc.trace)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Count(b, []byte(tc.old)) != 1 {
					t.Fatalf("%s holds %q %d times, want once", tc.trace, tc.old, bytes.Count(b, []byte(tc.old)))
				}
				if err := os.WriteFile(changed, bytes.Replace(b, []byte(tc.old), []byte(tc.new), 1), 0o666); err != nil {
					t.Fatal(err)
				}
			}
			code, stdout, stderr := fedtrace(tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr %q", code, tc.code, stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.ReplaceAll(stdout, dir+string(filepath.Separator), ""); got != string(want) {
				t.Errorf("fedtrace %s:\n%s\nwant (testdata/%s):\n%s", strings.Join(tc.args, " "), got, tc.golden, want)
			}
		})
	}
}
