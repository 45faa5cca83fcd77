// Command fedtrace analyzes and replays the JSONL run traces the other
// fedprox commands record with -trace (schema: internal/obs, decoder:
// internal/obs/tracefile).
//
// Usage:
//
//	fedtrace summary trace.jsonl
//	fedtrace diff a.jsonl b.jsonl
//	fedtrace replay -exp ext-vtime -fast trace.jsonl
//	fedtrace replay -fast -vtime-deadline 0.5,1,2 -json BENCH_replay.json trace.jsonl
//
// summary streams one pass over the trace and prints, per recorded run,
// a per-round table (dispatches, dispositions, reply-latency quantiles,
// wire bytes, virtual duration), straggler attribution, and byte
// accounting.
//
// diff aligns two traces event by event over the shared schema and
// reports the first divergent event plus per-round deltas; it exits
// non-zero when the traces differ — the determinism check in script
// form.
//
// replay feeds a recorded trace back through a fresh sans-I/O
// coordinator (core.Replay): with no policy flags it re-runs every case
// under its recorded policy and verifies the replayed event stream is
// equivalent to the recording (exit non-zero on mismatch); with
// -vtime-deadline/-vtime-round-bytes/-async-* sweeps it answers "what
// would this policy have done to the recorded run" — no local solves,
// pure arrival bookkeeping — and emits the same BenchEntry JSON
// fedbench writes.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"fedprox/internal/cli"
	"fedprox/internal/core"
	"fedprox/internal/experiments"
	"fedprox/internal/obs"
	"fedprox/internal/obs/tracefile"
)

// errUsage answers a call without a known subcommand or with the wrong
// number of trace files: the usage text, exit status 2.
var errUsage = cli.Usage(errors.New(`analyze and replay fedprox JSONL run traces
subcommands:
  summary <trace.jsonl>           per-round breakdown, stragglers, bytes
  diff <a.jsonl> <b.jsonl>        first divergent event + per-round deltas
  replay [flags] <trace.jsonl>    re-enact recorded arrivals under the
                                  recorded policy (verify) or -vtime-*/
                                  -async-* alternatives (what-if sweep)`))

// errDivergent is diff's verdict on two traces that differ, exit status 1.
var errDivergent = errors.New("the traces differ")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: the subcommand args[0] writes its report to stdout.
var run = cli.Command("fedtrace", func(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	switch args[0] {
	case "summary":
		return cmdSummary(args[1:], stdout)
	case "diff":
		return cmdDiff(args[1:], stdout)
	case "replay":
		return cmdReplay(args[1:], stdout, stderr)
	}
	return errUsage
})

func cmdSummary(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return errUsage
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	return tracefile.Summarize(stdout, f)
}

func readTrace(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := tracefile.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

func cmdDiff(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errUsage
	}
	a, err := readTrace(args[0])
	if err != nil {
		return err
	}
	b, err := readTrace(args[1])
	if err != nil {
		return err
	}
	if tracefile.Diff(stdout, args[0], args[1], a, b) {
		return errDivergent
	}
	return nil
}

// ---- replay -----------------------------------------------------------

// floatList parses a comma-separated -flag value list.
func floatList(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad list element %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// recordedFinalLoss extracts the segment's last evaluated loss — the
// value replay itself cannot recompute. Zero (never NaN: BenchEntry
// marshals through encoding/json) when the recording has no finite eval.
func recordedFinalLoss(seg []obs.Event) (loss, acc float64) {
	for _, e := range seg {
		if e.Kind == obs.KindEval && !math.IsNaN(e.Loss) {
			loss = e.Loss
			if !math.IsNaN(e.Acc) {
				acc = e.Acc
			}
		}
	}
	return loss, acc
}

func cmdReplay(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "ext-vtime", "experiment the trace was recorded by (case configs are rebuilt from it)")
		fast      = fs.Bool("fast", false, "the recording used fedbench -fast (miniature preset)")
		seed      = fs.Uint64("seed", 0, "override environment seed (must match the recording)")
		rounds    = fs.Int("rounds", 0, "override communication rounds (must match the recording)")
		scale     = fs.Float64("scale", 0, "override dataset scale (must match the recording)")
		deadlines = fs.String("vtime-deadline", "", "comma-separated deadline sweep in virtual seconds")
		budgets   = fs.String("vtime-round-bytes", "", "comma-separated per-round wire-byte budget sweep")
		alphas    = fs.String("async-alpha", "", "comma-separated async mixing-rate sweep (async cases only)")
		stales    = fs.String("async-staleness-exp", "", "comma-separated staleness-exponent sweep (async cases only)")
		bufferKs  = fs.String("async-buffer-k", "", "comma-separated buffered flush-size sweep (buffered cases only)")
		jsonPath  = fs.String("json", "", "write BenchEntry JSON (same schema as fedbench -json) to this file")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errUsage
	}

	opts := experiments.Full()
	if *fast {
		opts = experiments.Fast()
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *rounds > 0 {
		opts.Rounds = *rounds
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	cases, err := experiments.ReplayCases(*exp, opts)
	if err != nil {
		return err
	}

	evs, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	segments := tracefile.Runs(evs)
	if len(segments) != len(cases) {
		return fmt.Errorf("trace has %d run segments but %s runs %d cases — record with `fedbench -exp %s -trace ...` and matching options",
			len(segments), *exp, len(cases), *exp)
	}

	// What-if sweep: one override axis at a time, recorded policy as the
	// base. Async knobs apply only to cases already in an async mode.
	every := func(core.Config) bool { return true }
	async := func(c core.Config) bool { return c.Async.Enabled() }
	axes := []struct {
		list  string
		label func(float64) string
		set   func(*core.Config, float64)
		wants func(core.Config) bool
		vs    []float64
	}{
		{list: *deadlines, label: func(v float64) string { return fmt.Sprintf("deadline=%gs", v) },
			set: func(c *core.Config, v float64) { c.VTime.DeadlineSeconds = v }, wants: every},
		{list: *budgets, label: func(v float64) string { return fmt.Sprintf("round-bytes=%d", int64(v)) },
			set: func(c *core.Config, v float64) { c.VTime.RoundBytes = int64(v) }, wants: every},
		{list: *alphas, label: func(v float64) string { return fmt.Sprintf("alpha=%g", v) },
			set: func(c *core.Config, v float64) { c.Async.Alpha = v }, wants: async},
		{list: *stales, label: func(v float64) string { return fmt.Sprintf("staleness-exp=%g", v) },
			set: func(c *core.Config, v float64) { c.Async.StalenessExponent = v }, wants: async},
		{list: *bufferKs, label: func(v float64) string { return fmt.Sprintf("buffer-k=%d", int(v)) },
			set: func(c *core.Config, v float64) { c.Async.BufferK = int(v) }, wants: func(c core.Config) bool { return c.Async.Mode == core.Buffered }},
	}
	sweep := false
	for i := range axes {
		if axes[i].vs, err = floatList(axes[i].list); err != nil {
			return err
		}
		sweep = sweep || len(axes[i].vs) > 0
	}
	if !sweep {
		return verifyReplay(stdout, cases, segments)
	}

	var entries []experiments.BenchEntry
	fmt.Fprintf(stdout, "%-14s %-22s %10s %7s %7s %8s %8s %8s\n",
		"case", "override", "virtual-s", "folded", "dropped", "p50", "p90", "p99")
	for i, c := range cases {
		loss, acc := recordedFinalLoss(segments[i])
		for _, ax := range axes {
			if !ax.wants(c.Config) {
				continue
			}
			for _, v := range ax.vs {
				cfg, label := c.Config, ax.label(v)
				ax.set(&cfg, v)
				h, err := core.Replay(c.Model, c.Fleet, cfg, segments[i])
				if err != nil {
					return fmt.Errorf("replay %s under %s: %w", c.Name, label, err)
				}
				fin := h.Final()
				dropped := 0
				for _, a := range h.Arrivals {
					if a.Drop != core.ArrivalFolded {
						dropped++
					}
				}
				q := h.ReplyLatencyQuantiles(0.5, 0.9, 0.99)
				fmt.Fprintf(stdout, "%-14s %-22s %10.1f %7d %7d %8s %8s %8s\n",
					c.Name, label, fin.VirtualSeconds, len(h.Arrivals)-dropped, dropped,
					tracefile.FormatSeconds(q[0]), tracefile.FormatSeconds(q[1]), tracefile.FormatSeconds(q[2]))
				entries = append(entries, experiments.BenchEntry{
					Experiment:      "replay:" + *exp,
					Section:         c.Name,
					Method:          label,
					Rounds:          fin.Round,
					FinalLoss:       loss, // recorded, not replayed: replay never evaluates
					FinalAcc:        acc,
					VirtualSeconds:  fin.VirtualSeconds,
					ReplyLatencyP50: q[0],
					ReplyLatencyP90: q[1],
					ReplyLatencyP99: q[2],
				})
			}
		}
	}
	if *jsonPath != "" {
		return experiments.WriteBench(*jsonPath, entries)
	}
	return nil
}

// verifyReplay re-runs every recorded case under its recorded policy and
// checks event-stream equivalence — the replay counterpart of the
// decoder's round-trip guarantee, runnable against any trace artifact. It
// writes the verdict to w and returns the first divergence.
func verifyReplay(w io.Writer, cases []experiments.ReplayCase, segments [][]obs.Event) error {
	total := 0
	for i, c := range cases {
		var got obs.Tape
		cfg := c.Config
		cfg.Trace = &got
		if _, err := core.Replay(c.Model, c.Fleet, cfg, segments[i]); err != nil {
			return fmt.Errorf("replay %s: %w", c.Name, err)
		}
		want := segments[i]
		if len(got) != len(want) {
			return fmt.Errorf("replay %s: %d events recorded, %d replayed", c.Name, len(want), len(got))
		}
		if j, key := tracefile.FirstDifference(want, got, true); key != "" {
			return fmt.Errorf("replay %s: event #%d diverges on %q\n  recorded: %s\n  replayed: %s",
				c.Name, j, key, bytes.TrimSpace(obs.AppendEvent(nil, want[j])), bytes.TrimSpace(obs.AppendEvent(nil, got[j])))
		}
		total += len(want)
	}
	fmt.Fprintf(w, "replay equivalence OK: %d cases, %d events reproduced under recorded policies (0 solver calls)\n",
		len(cases), total)
	return nil
}
