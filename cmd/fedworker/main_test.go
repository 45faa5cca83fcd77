package main

import (
	"bytes"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fedprox/internal/data/datafile"
	"fedprox/internal/experiments"
)

// TestRefusals holds each way a fedworker command line goes wrong to its
// exit status and message: 2 for a flag the set rejects, 1 for the rest.
// The worker rows that pass every check end at the dial, to a loopback
// port nothing listens on (fedserver's tests run whole deployments).
func TestRefusals(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()

	dir := t.TempDir()
	opts := experiments.Full()
	opts.Scale = 0.05
	w, err := opts.NamedWorkload("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	fed := filepath.Join(dir, "synthetic.fed")
	if err := datafile.WriteFile(fed, w.Fed); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "no", "such", "dir")
	dial := "fedworker: fednet: dial " + closed
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag"},
		{[]string{"-workers", "two"}, 2, `invalid value "two" for flag -workers`},
		{[]string{"-h"}, 0, "Usage of fedworker"},
		{[]string{"-workers", "2", "-index", "2"}, 1, "fedworker: index 2 outside [0,2)"},
		{[]string{"-index", "-1"}, 1, "fedworker: index -1 outside [0,1)"},
		{[]string{"-fanout", "4"}, 1, "fedworker: -fanout and -tier-latency require -tier"},
		{[]string{"-tier", "root", "-fanout", "4"}, 1, "fedworker: -tier root: a fedworker can only serve under an edge (-tier edge)"},
		{[]string{"-tier", "edge", "-fanout", "4", "-tier-latency", "0.1"}, 1, "fedworker: -tier-latency applies to aggregator legs, not workers"},
		{[]string{"-workload", "no-such-workload"}, 1, `fedworker: experiments: unknown workload "no-such-workload"`},
		{[]string{"-data", missing}, 1, "fedworker: datafile: open " + missing},
		{[]string{"-solver", "newton"}, 1, `fedworker: unknown solver "newton"`},
		{[]string{"-privacy-clip", "Inf"}, 1, "fedworker: privacy: clip norm must be non-negative and finite"},
		{[]string{"-addr", closed, "-privacy-clip", "-1", "-privacy-noise", "-0.5"}, 1, "fedworker: privacy: clip norm must be non-negative and finite, got -1"},
		{[]string{"-addr", closed, "-privacy-clip", "NaN"}, 1, "fedworker: privacy: clip norm must be non-negative and finite, got NaN"},
		{[]string{"-addr", closed, "-privacy-noise", "-0.5"}, 1, "fedworker: privacy: noise std must be non-negative and finite, got -0.5"},
		{[]string{"-codec", " , "}, 1, `fedworker: -codec " , " names no codecs`},
		{[]string{"-trace", missing}, 1, "fedworker: open " + missing},
		{[]string{"-addr", closed}, 1, dial},
		{[]string{"-addr", closed, "-data", fed, "-workers", "2", "-index", "1"}, 1, dial},
		{[]string{"-addr", closed, "-tier", "edge", "-fanout", "4", "-workers", "2", "-index", "1"}, 1, dial},
		{[]string{"-addr", closed, "-codec", "raw,qsgd", "-privacy-noise", "0.1"}, 1, dial},
		{[]string{"-addr", closed, "-solver", "momentum"}, 1, dial},
		{[]string{"-addr", closed, "-solver", "adagrad"}, 1, dial},
		{[]string{"-addr", closed, "-solver", "adam"}, 1, dial},
		{[]string{"-addr", closed, "-solver", "gd"}, 1, dial},
	} {
		var stdout, stderr bytes.Buffer
		code := run(slices.Concat(tc.args, []string{"-scale", "0.05"}), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("fedworker %s: exit %d, stderr %q; want exit %d, stderr containing %q", strings.Join(tc.args, " "), code, stderr.String(), tc.code, tc.stderr)
		}
	}
}
