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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
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

// ---- summary ----------------------------------------------------------

// roundStats accumulates one round (sync) or milestone window (async):
// everything between two round-close events.
type roundStats struct {
	round      int
	dispatches int
	bytesDown  int64
	bytesUp    int64
	rels       []float64
	dispo      map[string]int
	secs       float64
	loss, acc  float64
}

// deviceStats attributes reply latency to one device across a run. In a
// tiered trace the same device number recurs at every tier (edge-local
// IDs are 0-based), so attribution keys on (tier, device).
type deviceStats struct {
	tier    int
	device  int
	total   float64
	replies int
	dropped int
}

// tierStats rolls a run's traffic up by the emitting coordinator's tier
// (0 = the tree's root, whose devices are edge aggregators; leaves are
// the deepest tier). Untiered events (tier -1) stay out of the rollup.
type tierStats struct {
	dispatches int
	folds      int
	folded     int
	dropped    int
	bytesDown  int64
	bytesUp    int64
	rels       []float64
}

func fmtSecs(s float64) string {
	if math.IsNaN(s) {
		return "-"
	}
	return fmt.Sprintf("%.3f", s)
}

func cmdSummary(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return errUsage
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	return summarize(stdout, f)
}

// summarize streams one pass over the trace r holds and writes to w, per
// recorded run, the per-round table, the per-tier rollup of a tiered run,
// straggler attribution (with the slow edge of a tiered one) and byte
// accounting. A malformed line is its error.
func summarize(w io.Writer, r io.Reader) error {
	d := tracefile.NewDecoder(r)
	newRound := func() *roundStats {
		return &roundStats{round: -1, secs: math.NaN(), loss: math.NaN(), acc: math.NaN(), dispo: map[string]int{}}
	}
	var (
		run      = -1
		runLabel string
		runN     int
		runNodes int
		dispSeen bool // any dispatch since the last run-start
		cur      = newRound()
		devs     = map[[2]int]*deviceStats{}
		tiers    = map[int]*tierStats{}
		rows     []*roundStats
		totDown  int64
		totUp    int64
		totEvals int
	)
	flushRun := func() {
		if run < 0 {
			return
		}
		if runNodes > 1 {
			fmt.Fprintf(w, "\n== run %d: %q (%d devices at the root, %d tree nodes)\n", run, runLabel, runN, runNodes)
		} else {
			fmt.Fprintf(w, "\n== run %d: %q (%d devices)\n", run, runLabel, runN)
		}
		fmt.Fprintf(w, "\n%-6s %5s %6s %6s %8s %8s %8s %11s %11s %8s %9s\n",
			"round", "disp", "folded", "drop", "p50", "p90", "p99", "bytes-down", "bytes-up", "secs", "loss")
		for _, r := range rows {
			sort.Float64s(r.rels)
			dropped := 0
			for k, n := range r.dispo {
				if k != "folded" {
					dropped += n
				}
			}
			loss := "-"
			if !math.IsNaN(r.loss) {
				loss = fmt.Sprintf("%.4f", r.loss)
			}
			q := core.Quantiles(r.rels, 0.5, 0.9, 0.99)
			fmt.Fprintf(w, "%-6d %5d %6d %6d %8s %8s %8s %11d %11d %8s %9s\n",
				r.round, r.dispatches, r.dispo["folded"], dropped,
				fmtSecs(q[0]), fmtSecs(q[1]), fmtSecs(q[2]),
				r.bytesDown, r.bytesUp, fmtSecs(r.secs), loss)
		}
		fmt.Fprintf(w, "totals: %d bytes down, %d bytes up, %d evals\n", totDown, totUp, totEvals)

		// Per-tier rollup: present whenever the run carried tier stamps
		// (a tiered simulation interleaves every node's events; a fednet
		// root or edge process stamps its own tier).
		maxTier := -1
		for t := range tiers {
			if t > maxTier {
				maxTier = t
			}
		}
		if maxTier >= 0 {
			fmt.Fprintln(w, "per-tier rollup (tier 0 = root; its devices are edge aggregators):")
			fmt.Fprintf(w, "%-6s %5s %6s %6s %6s %8s %8s %8s %11s %11s\n",
				"tier", "disp", "folded", "drop", "folds", "p50", "p90", "p99", "bytes-down", "bytes-up")
			for t := 0; t <= maxTier; t++ {
				ts := tiers[t]
				if ts == nil {
					continue
				}
				sort.Float64s(ts.rels)
				q := core.Quantiles(ts.rels, 0.5, 0.9, 0.99)
				fmt.Fprintf(w, "%-6d %5d %6d %6d %6d %8s %8s %8s %11d %11d\n",
					t, ts.dispatches, ts.folded, ts.dropped, ts.folds,
					fmtSecs(q[0]), fmtSecs(q[1]), fmtSecs(q[2]),
					ts.bytesDown, ts.bytesUp)
			}
		}

		// Straggler attribution. In a tiered run the interesting laggards
		// are the leaf devices (deepest tier); the root's own slowest
		// child names the edge that held every round open.
		top := make([]*deviceStats, 0, len(devs))
		for _, ds := range devs {
			if maxTier >= 0 && ds.tier != maxTier {
				continue
			}
			top = append(top, ds)
		}
		sort.Slice(top, func(i, j int) bool { return top[i].total > top[j].total })
		if len(top) > 5 {
			top = top[:5]
		}
		if len(top) > 0 && top[0].total > 0 {
			fmt.Fprintln(w, "stragglers (by cumulative reply latency):")
			for _, ds := range top {
				fmt.Fprintf(w, "  device %-4d %8.3fs over %d replies, %d dropped\n",
					ds.device, ds.total, ds.replies, ds.dropped)
			}
		}
		if maxTier > 0 {
			var slow *deviceStats
			for _, ds := range devs {
				if ds.tier != 0 {
					continue
				}
				if slow == nil || ds.total > slow.total {
					slow = ds
				}
			}
			if slow != nil && slow.total > 0 {
				fmt.Fprintf(w, "slow edge: edge %d held the root longest — %.3fs cumulative reply latency over %d replies, %d dropped\n",
					slow.device, slow.total, slow.replies, slow.dropped)
			}
		}
	}
	startRun := func(e obs.Event) {
		// A run-start before any dispatch of the current run is another
		// node of the same hierarchical run coming up (every tier edge
		// announces itself before the root opens round 0): fold it in
		// rather than starting a new run. The root announces last, so its
		// label and cohort win the header.
		if run >= 0 && !dispSeen {
			runLabel, runN = e.Label, e.N
			runNodes++
			return
		}
		flushRun()
		run++
		runLabel, runN, runNodes, dispSeen = e.Label, e.N, 1, false
		cur, devs, tiers, rows = newRound(), map[[2]int]*deviceStats{}, map[int]*tierStats{}, nil
		totDown, totUp, totEvals = 0, 0, 0
	}
	tierRow := func(t int) *tierStats {
		ts := tiers[t]
		if ts == nil {
			ts = &tierStats{}
			tiers[t] = ts
		}
		return ts
	}
	for {
		e, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		switch e.Kind {
		case obs.KindRunStart:
			startRun(e)
		case obs.KindDispatch:
			dispSeen = true
			cur.dispatches++
			cur.bytesDown += e.BytesDown
			totDown += e.BytesDown
			if e.Tier >= 0 {
				ts := tierRow(e.Tier)
				ts.dispatches++
				ts.bytesDown += e.BytesDown
			}
		case obs.KindReply:
			cur.bytesUp += e.BytesUp
			totUp += e.BytesUp
			if !math.IsNaN(e.Seconds) {
				cur.rels = append(cur.rels, e.Seconds)
			}
			cur.dispo[e.Disposition]++
			ds := devs[[2]int{e.Tier, e.Device}]
			if ds == nil {
				ds = &deviceStats{tier: e.Tier, device: e.Device}
				devs[[2]int{e.Tier, e.Device}] = ds
			}
			ds.replies++
			if !math.IsNaN(e.Seconds) {
				ds.total += e.Seconds
			}
			if e.Disposition != "folded" {
				ds.dropped++
			}
			if e.Tier >= 0 {
				ts := tierRow(e.Tier)
				ts.bytesUp += e.BytesUp
				if !math.IsNaN(e.Seconds) {
					ts.rels = append(ts.rels, e.Seconds)
				}
				if e.Disposition == "folded" {
					ts.folded++
				} else {
					ts.dropped++
				}
			}
		case obs.KindDrop:
			cur.dispo[e.Disposition]++
		case obs.KindFold:
			if e.Tier >= 0 {
				tierRow(e.Tier).folds++
			}
		case obs.KindRoundClose:
			// A tiered run closes the same round once per node (edges
			// first, the root last): merge those into one row so the
			// table stays one line per round, keeping the root's timed
			// duration when it has one.
			if n := len(rows); n > 0 && rows[n-1].round == e.Round {
				prev := rows[n-1]
				prev.dispatches += cur.dispatches
				prev.bytesDown += cur.bytesDown
				prev.bytesUp += cur.bytesUp
				prev.rels = append(prev.rels, cur.rels...)
				for k, v := range cur.dispo {
					prev.dispo[k] += v
				}
				if !math.IsNaN(e.Seconds) {
					prev.secs = e.Seconds
				}
				if !math.IsNaN(cur.loss) {
					prev.loss, prev.acc = cur.loss, cur.acc
				}
			} else {
				cur.round = e.Round
				cur.secs = e.Seconds
				rows = append(rows, cur)
			}
			cur = newRound()
		case obs.KindEval:
			totEvals++
			// An eval stamps the most recent closed row when it follows
			// the close (sync cadence), else the open window. A replayed
			// trace's evals are NaN placeholders (replay trains nothing) —
			// only finite losses land in the table.
			if math.IsNaN(e.Loss) {
				break
			}
			if n := len(rows); n > 0 && rows[n-1].round == e.Round {
				rows[n-1].loss, rows[n-1].acc = e.Loss, e.Acc
			} else {
				cur.loss, cur.acc = e.Loss, e.Acc
			}
		}
	}
	flushRun()
	fmt.Fprintln(w)
	return nil
}

// ---- diff -------------------------------------------------------------

// eventDiff reports the first field on which two events of the same kind
// differ ("" when equal). skipEvalMetrics ignores an eval's loss/acc —
// replay verification cannot recompute them.
func eventDiff(a, b obs.Event, skipEvalMetrics bool) string {
	if a.Kind != b.Kind {
		return "kind"
	}
	for _, f := range obs.Fields(a.Kind) {
		if skipEvalMetrics && a.Kind == obs.KindEval && (f.Key == "loss" || f.Key == "acc") {
			continue
		}
		var eq bool
		switch f.Type {
		case obs.FieldInt:
			eq = f.Int(&a) == f.Int(&b)
		case obs.FieldInt64:
			eq = f.Int64(&a) == f.Int64(&b)
		case obs.FieldFloat:
			eq = math.Float64bits(f.Float(&a)) == math.Float64bits(f.Float(&b))
		case obs.FieldString:
			eq = f.Str(&a) == f.Str(&b)
		}
		if !eq {
			return f.Key
		}
	}
	return ""
}

// render returns an event's canonical JSONL line without the newline.
func render(e obs.Event) string {
	return strings.TrimRight(string(obs.AppendEvent(nil, e)), "\n")
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
	if diffTraces(stdout, args[0], args[1], a, b) {
		return errDivergent
	}
	return nil
}

// diffTraces writes the comparison of traces a and b, named nameA and
// nameB, to w — the first divergent event (or which trace runs longer)
// and the per-round deltas — and reports whether they diverge.
func diffTraces(w io.Writer, nameA, nameB string, a, b []obs.Event) (divergent bool) {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if key := eventDiff(a[i], b[i], false); key != "" {
			fmt.Fprintf(w, "first divergent event: #%d, field %q\n  %s: %s\n  %s: %s\n",
				i, key, nameA, render(a[i]), nameB, render(b[i]))
			divergent = true
			break
		}
	}
	if !divergent && len(a) != len(b) {
		longer, more := nameA, len(a)-len(b)
		if more < 0 {
			longer, more = nameB, -more
		}
		fmt.Fprintf(w, "traces agree for %d events, then %s has %d more\n", n, longer, more)
		divergent = true
	}

	// Per-round deltas: virtual duration and eval loss, keyed by round,
	// first run segment of each trace.
	type roundRow struct {
		secs, loss float64
	}
	collect := func(evs []obs.Event) map[int]*roundRow {
		m := map[int]*roundRow{}
		row := func(r int) *roundRow {
			if m[r] == nil {
				m[r] = &roundRow{secs: math.NaN(), loss: math.NaN()}
			}
			return m[r]
		}
		for _, e := range evs {
			switch e.Kind {
			case obs.KindRoundClose:
				row(e.Round).secs = e.Seconds
			case obs.KindEval:
				row(e.Round).loss = e.Loss
			}
		}
		return m
	}
	ra, rb := collect(a), collect(b)
	var rounds []int
	for r := range ra {
		if rb[r] != nil {
			rounds = append(rounds, r)
		}
	}
	sort.Ints(rounds)
	printed := false
	for _, r := range rounds {
		ds := rb[r].secs - ra[r].secs
		dl := rb[r].loss - ra[r].loss
		if (math.IsNaN(ds) || ds == 0) && (math.IsNaN(dl) || dl == 0) {
			continue
		}
		if !printed {
			fmt.Fprintf(w, "per-round deltas (%s minus %s):\n", nameB, nameA)
			printed = true
		}
		fmt.Fprintf(w, "  round %-4d", r)
		if !math.IsNaN(ds) && ds != 0 {
			fmt.Fprintf(w, "  secs %+.4f", ds)
		}
		if !math.IsNaN(dl) && dl != 0 {
			fmt.Fprintf(w, "  loss %+.6f", dl)
		}
		fmt.Fprintln(w)
	}

	if !divergent {
		fmt.Fprintf(w, "traces identical: %d events\n", len(a))
	}
	return divergent
}

// ---- replay -----------------------------------------------------------

// collector buffers replayed events in memory for comparison.
type collector struct{ evs []obs.Event }

func (c *collector) Emit(e obs.Event) { c.evs = append(c.evs, e) }

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
	type override struct {
		label string
		apply func(*core.Config)
		wants func(core.Config) bool
	}
	every := func(core.Config) bool { return true }
	async := func(c core.Config) bool { return c.Async.Enabled() }
	axes := []struct {
		list  string
		label func(float64) string
		set   func(*core.Config, float64)
		wants func(core.Config) bool
	}{
		{*deadlines, func(v float64) string { return fmt.Sprintf("deadline=%gs", v) },
			func(c *core.Config, v float64) { c.VTime.DeadlineSeconds = v }, every},
		{*budgets, func(v float64) string { return fmt.Sprintf("round-bytes=%d", int64(v)) },
			func(c *core.Config, v float64) { c.VTime.RoundBytes = int64(v) }, every},
		{*alphas, func(v float64) string { return fmt.Sprintf("alpha=%g", v) },
			func(c *core.Config, v float64) { c.Async.Alpha = v }, async},
		{*stales, func(v float64) string { return fmt.Sprintf("staleness-exp=%g", v) },
			func(c *core.Config, v float64) { c.Async.StalenessExponent = v }, async},
		{*bufferKs, func(v float64) string { return fmt.Sprintf("buffer-k=%d", int(v)) },
			func(c *core.Config, v float64) { c.Async.BufferK = int(v) }, func(c core.Config) bool { return c.Async.Mode == core.Buffered }},
	}
	var overrides []override
	for _, ax := range axes {
		vs, err := floatList(ax.list)
		if err != nil {
			return err
		}
		for _, v := range vs {
			overrides = append(overrides, override{ax.label(v), func(c *core.Config) { ax.set(c, v) }, ax.wants})
		}
	}
	if len(overrides) == 0 {
		return verifyReplay(stdout, cases, segments)
	}

	var entries []experiments.BenchEntry
	fmt.Fprintf(stdout, "%-14s %-22s %10s %7s %7s %8s %8s %8s\n",
		"case", "override", "virtual-s", "folded", "dropped", "p50", "p90", "p99")
	for i, c := range cases {
		loss, acc := recordedFinalLoss(segments[i])
		for _, ov := range overrides {
			if !ov.wants(c.Config) {
				continue
			}
			cfg := c.Config
			ov.apply(&cfg)
			h, err := core.Replay(c.Model, c.Fleet, cfg, segments[i])
			if err != nil {
				return fmt.Errorf("replay %s under %s: %w", c.Name, ov.label, err)
			}
			fin := h.Final()
			folded, dropped := 0, 0
			for _, a := range h.Arrivals {
				if a.Drop == core.ArrivalFolded {
					folded++
				} else {
					dropped++
				}
			}
			q := h.ReplyLatencyQuantiles(0.5, 0.9, 0.99)
			fmt.Fprintf(stdout, "%-14s %-22s %10.1f %7d %7d %8s %8s %8s\n",
				c.Name, ov.label, fin.VirtualSeconds, folded, dropped,
				fmtSecs(q[0]), fmtSecs(q[1]), fmtSecs(q[2]))
			entries = append(entries, experiments.BenchEntry{
				Experiment:      "replay:" + *exp,
				Section:         c.Name,
				Method:          ov.label,
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
		var got collector
		cfg := c.Config
		cfg.Trace = &got
		if _, err := core.Replay(c.Model, c.Fleet, cfg, segments[i]); err != nil {
			return fmt.Errorf("replay %s: %w", c.Name, err)
		}
		want := segments[i]
		if len(got.evs) != len(want) {
			return fmt.Errorf("replay %s: %d events recorded, %d replayed", c.Name, len(want), len(got.evs))
		}
		for j := range want {
			if key := eventDiff(want[j], got.evs[j], true); key != "" {
				return fmt.Errorf("replay %s: event #%d diverges on %q\n  recorded: %s\n  replayed: %s",
					c.Name, j, key, render(want[j]), render(got.evs[j]))
			}
		}
		total += len(want)
	}
	fmt.Fprintf(w, "replay equivalence OK: %d cases, %d events reproduced under recorded policies (0 solver calls)\n",
		len(cases), total)
	return nil
}
