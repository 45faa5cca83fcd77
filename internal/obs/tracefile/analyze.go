package tracefile

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"iter"
	"math"
	"slices"

	"fedprox/internal/obs"
)

// tally counts one slice of a run's traffic: a round's row, one
// device's replies, one tier's rollup or the whole run. Each report
// prints the counts that mean something for its slice.
type tally struct {
	dispatches, folds, folded int
	// dropped counts replies not folded and, in a round's row, the
	// devices a policy cut without contacting them (KindDrop).
	dropped            int
	bytesDown, bytesUp int64
	rels               []float64 // timed reply latencies, in arrival order
	latency            float64   // their sum
}

func (t *tally) dispatch(e obs.Event) {
	t.dispatches++
	t.bytesDown += e.BytesDown
}

func (t *tally) reply(e obs.Event) {
	t.bytesUp += e.BytesUp
	if !math.IsNaN(e.Seconds) {
		t.rels = append(t.rels, e.Seconds)
		t.latency += e.Seconds
	}
	if e.Disposition == "folded" {
		t.folded++
	} else {
		t.dropped++
	}
}

func (t *tally) add(o *tally) {
	t.dispatches += o.dispatches
	t.folds += o.folds
	t.folded += o.folded
	t.dropped += o.dropped
	t.bytesDown += o.bytesDown
	t.bytesUp += o.bytesUp
	t.rels = append(t.rels, o.rels...)
	t.latency += o.latency
}

// quantiles formats the p50, p90 and p99 of the tally's reply
// latencies as three table columns.
func (t *tally) quantiles() string {
	slices.Sort(t.rels)
	q := obs.Quantiles(t.rels, 0.5, 0.9, 0.99)
	return fmt.Sprintf("%8s %8s %8s", FormatSeconds(q[0]), FormatSeconds(q[1]), FormatSeconds(q[2]))
}

// at returns m's tally for k, adding an empty one if m has none.
func at[K comparable](m map[K]*tally, k K) *tally {
	if m[k] == nil {
		m[k] = &tally{}
	}
	return m[k]
}

// row is one round (sync) or milestone window (async): everything
// between two round-close events, the close's duration and the
// evaluation stamped with the row's round.
type row struct {
	tally
	round           int
	secs, loss, acc float64
}

func newRow() *row { return &row{round: -1, secs: math.NaN(), loss: math.NaN(), acc: math.NaN()} }

// run is one recorded run folded into rows.
type run struct {
	label    string
	n, nodes int
	rows     []*row
	open     *row // the window after the last round-close
	all      tally
	evals    int
	// devices attributes replies to (tier, device): in a tiered trace
	// edge-local device numbers recur at every tier. tiers rolls the run
	// up by the emitting coordinator's tier (0 = the root, whose devices
	// are edge aggregators); untiered events (tier -1) stay out of it.
	devices map[[2]int]*tally
	tiers   map[int]*tally
}

// add folds one event of the run in.
func (r *run) add(e obs.Event) {
	switch e.Kind {
	case obs.KindRunStart:
		// The root announces itself last, so its label and cohort win.
		r.label, r.n = e.Label, e.N
		r.nodes++
	case obs.KindDispatch:
		r.open.dispatch(e)
		r.all.dispatch(e)
		if e.Tier >= 0 {
			at(r.tiers, e.Tier).dispatch(e)
		}
	case obs.KindReply:
		r.open.reply(e)
		r.all.reply(e)
		at(r.devices, [2]int{e.Tier, e.Device}).reply(e)
		if e.Tier >= 0 {
			at(r.tiers, e.Tier).reply(e)
		}
	case obs.KindDrop:
		r.open.dropped++
	case obs.KindFold:
		if e.Tier >= 0 {
			at(r.tiers, e.Tier).folds++
		}
	case obs.KindRoundClose:
		// A tiered run closes the same round once per node (edges
		// first, the root last): merge those into one row so the table
		// stays one line per round, keeping the root's timed duration
		// when it has one.
		if n := len(r.rows); n > 0 && r.rows[n-1].round == e.Round {
			prev := r.rows[n-1]
			prev.add(&r.open.tally)
			if !math.IsNaN(e.Seconds) {
				prev.secs = e.Seconds
			}
			if !math.IsNaN(r.open.loss) {
				prev.loss, prev.acc = r.open.loss, r.open.acc
			}
		} else {
			r.open.round, r.open.secs = e.Round, e.Seconds
			r.rows = append(r.rows, r.open)
		}
		r.open = newRow()
	case obs.KindEval:
		r.evals++
		// An eval stamps the most recent closed row when it follows that
		// row's close (an async milestone), else the open window. A
		// replayed trace's evals are NaN placeholders (replay trains
		// nothing): only finite losses land.
		if math.IsNaN(e.Loss) {
			break
		}
		if n := len(r.rows); n > 0 && r.rows[n-1].round == e.Round {
			r.rows[n-1].loss, r.rows[n-1].acc = e.Loss, e.Acc
		} else {
			r.open.round, r.open.loss, r.open.acc = e.Round, e.Loss, e.Acc
		}
	}
}

// fold folds events into runs and hands each to done once the next run
// starts or the events end. A hierarchical run interleaves every tree
// node's events, and each node announces itself with a run-start before
// the root opens round 0: a run-start before the run's first dispatch
// joins the run. Events before the first run-start belong to no run.
func fold(events iter.Seq[obs.Event], done func(*run)) {
	var r *run
	for e := range events {
		if e.Kind == obs.KindRunStart && (r == nil || r.all.dispatches > 0) {
			if r != nil {
				done(r)
			}
			r = &run{open: newRow(), devices: map[[2]int]*tally{}, tiers: map[int]*tally{}}
		}
		if r != nil {
			r.add(e)
		}
	}
	if r != nil {
		done(r)
	}
}

// runs folds a decoded event stream into its runs.
func runs(evs []obs.Event) (out []*run) {
	fold(slices.Values(evs), func(r *run) { out = append(out, r) })
	return out
}

// FormatSeconds prints a duration as the trace reports do: three
// decimals, "-" when unmeasured (NaN).
func FormatSeconds(s float64) string {
	if math.IsNaN(s) {
		return "-"
	}
	return fmt.Sprintf("%.3f", s)
}

// Summarize streams one pass over the trace r holds and writes to w, per
// recorded run, the per-round table, the per-tier rollup of a tiered run,
// straggler attribution (with the slow edge of a tiered one) and byte
// accounting. A malformed line is its error.
func Summarize(w io.Writer, r io.Reader) error {
	var err error
	i := 0
	fold(func(yield func(obs.Event) bool) { err = each(r, func(e obs.Event) { yield(e) }) }, func(run *run) {
		if err == nil { // a malformed line cut the last run short: print none of it
			run.print(w, i)
			i++
		}
	})
	if err == nil {
		fmt.Fprintln(w)
	}
	return err
}

// print writes run i's summary to w.
func (r *run) print(w io.Writer, i int) {
	if r.nodes > 1 {
		fmt.Fprintf(w, "\n== run %d: %q (%d devices at the root, %d tree nodes)\n", i, r.label, r.n, r.nodes)
	} else {
		fmt.Fprintf(w, "\n== run %d: %q (%d devices)\n", i, r.label, r.n)
	}
	fmt.Fprintf(w, "\n%-6s %5s %6s %6s %8s %8s %8s %11s %11s %8s %9s\n",
		"round", "disp", "folded", "drop", "p50", "p90", "p99", "bytes-down", "bytes-up", "secs", "loss")
	for _, row := range r.rows {
		loss := "-"
		if !math.IsNaN(row.loss) {
			loss = fmt.Sprintf("%.4f", row.loss)
		}
		fmt.Fprintf(w, "%-6d %5d %6d %6d %s %11d %11d %8s %9s\n", row.round, row.dispatches, row.folded, row.dropped,
			row.quantiles(), row.bytesDown, row.bytesUp, FormatSeconds(row.secs), loss)
	}
	fmt.Fprintf(w, "totals: %d bytes down, %d bytes up, %d evals", r.all.bytesDown, r.all.bytesUp, r.evals)
	if !math.IsNaN(r.open.loss) { // the evaluation after the last round-close
		fmt.Fprintf(w, ", final loss %.4f (round %d)", r.open.loss, r.open.round)
	}
	fmt.Fprintln(w)

	// Per-tier rollup: present whenever the run carried tier stamps (a
	// tiered simulation interleaves every node's events; a fednet root
	// or edge process stamps its own tier).
	maxTier := -1
	for t := range r.tiers {
		maxTier = max(maxTier, t)
	}
	if maxTier >= 0 {
		fmt.Fprintln(w, "per-tier rollup (tier 0 = root; its devices are edge aggregators):")
		fmt.Fprintf(w, "%-6s %5s %6s %6s %6s %8s %8s %8s %11s %11s\n",
			"tier", "disp", "folded", "drop", "folds", "p50", "p90", "p99", "bytes-down", "bytes-up")
		for t := 0; t <= maxTier; t++ {
			if ts := r.tiers[t]; ts != nil {
				fmt.Fprintf(w, "%-6d %5d %6d %6d %6d %s %11d %11d\n",
					t, ts.dispatches, ts.folded, ts.dropped, ts.folds, ts.quantiles(), ts.bytesDown, ts.bytesUp)
			}
		}
	}

	// Straggler attribution. In a tiered run the interesting laggards
	// are the leaf devices (deepest tier; an untiered run's are all at
	// tier -1); the root's own slowest child names the edge that held
	// every round open.
	top := r.ranked(maxTier)
	if len(top) > 0 && r.devices[top[0]].latency > 0 {
		fmt.Fprintln(w, "stragglers (by cumulative reply latency):")
		for _, k := range top[:min(5, len(top))] {
			ds := r.devices[k]
			fmt.Fprintf(w, "  device %-4d %8.3fs over %d replies, %d dropped\n", k[1], ds.latency, ds.folded+ds.dropped, ds.dropped)
		}
	}
	if edges := r.ranked(0); maxTier > 0 && len(edges) > 0 && r.devices[edges[0]].latency > 0 {
		ds := r.devices[edges[0]]
		fmt.Fprintf(w, "slow edge: edge %d held the root longest — %.3fs cumulative reply latency over %d replies, %d dropped\n",
			edges[0][1], ds.latency, ds.folded+ds.dropped, ds.dropped)
	}
}

// ranked returns the (tier, device) keys of the devices that replied at
// tier t, the largest cumulative reply latency first and ties by device.
func (r *run) ranked(t int) [][2]int {
	var keys [][2]int
	for k := range r.devices {
		if k[0] == t {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(r.devices[y].latency, r.devices[x].latency), cmp.Compare(x[1], y[1]))
	})
	return keys
}

// FirstDifference compares event streams a and b event by event over
// the shared schema. It returns the index of the first event on which
// they differ and the first field that does ("kind" when the kinds do),
// comparing floats by bits, so NaN equals NaN; key is "" when the
// shorter stream is a prefix of the longer, and i is then its length.
// ignoreEvalMetrics skips an eval's loss and acc, which a replay cannot
// recompute.
func FirstDifference(a, b []obs.Event, ignoreEvalMetrics bool) (i int, key string) {
	for i = range min(len(a), len(b)) {
		x, y := &a[i], &b[i]
		if x.Kind != y.Kind {
			return i, "kind"
		}
		for _, f := range obs.Fields(x.Kind) {
			if ignoreEvalMetrics && x.Kind == obs.KindEval && (f.Key == "loss" || f.Key == "acc") {
				continue
			}
			var eq bool
			switch f.Type {
			case obs.FieldInt:
				eq = f.Int(x) == f.Int(y)
			case obs.FieldInt64:
				eq = f.Int64(x) == f.Int64(y)
			case obs.FieldFloat:
				eq = math.Float64bits(f.Float(x)) == math.Float64bits(f.Float(y))
			case obs.FieldString:
				eq = f.Str(x) == f.Str(y)
			}
			if !eq {
				return i, f.Key
			}
		}
	}
	return min(len(a), len(b)), ""
}

// Diff writes the comparison of traces a and b, named nameA and nameB,
// to w — the first divergent event (or which trace runs longer) and the
// per-round deltas of virtual duration and eval loss — and reports
// whether they diverge.
func Diff(w io.Writer, nameA, nameB string, a, b []obs.Event) (divergent bool) {
	i, key := FirstDifference(a, b, false)
	switch {
	case key != "":
		fmt.Fprintf(w, "first divergent event: #%d, field %q\n  %s: %s\n  %s: %s\n", i, key,
			nameA, bytes.TrimSpace(obs.AppendEvent(nil, a[i])), nameB, bytes.TrimSpace(obs.AppendEvent(nil, b[i])))
	case len(a) > len(b):
		fmt.Fprintf(w, "traces agree for %d events, then %s has %d more\n", i, nameA, len(a)-len(b))
	case len(a) < len(b):
		fmt.Fprintf(w, "traces agree for %d events, then %s has %d more\n", i, nameB, len(b)-len(a))
	default:
		fmt.Fprintf(w, "traces identical: %d events\n", len(a))
	}

	// Per-round deltas, run by run (numbered as Summarize numbers them),
	// over the rounds both runs hold: the rows and the open window, which
	// holds the evaluation after the last round-close when the run has
	// one (and has round -1 when not).
	ra, rb := runs(a), runs(b)
	printed := false
	for i := range min(len(ra), len(rb)) {
		rows := map[int]*row{}
		for _, x := range append(ra[i].rows, ra[i].open) {
			rows[x.round] = x
		}
		for _, y := range append(rb[i].rows, rb[i].open) {
			x := rows[y.round]
			if x == nil {
				continue
			}
			ds, dl := y.secs-x.secs, y.loss-x.loss
			if (math.IsNaN(ds) || ds == 0) && (math.IsNaN(dl) || dl == 0) {
				continue
			}
			if !printed {
				fmt.Fprintf(w, "per-round deltas (%s minus %s):\n", nameB, nameA)
				printed = true
			}
			fmt.Fprintf(w, "  run %d round %-4d", i, y.round)
			if !math.IsNaN(ds) && ds != 0 {
				fmt.Fprintf(w, "  secs %+.4f", ds)
			}
			if !math.IsNaN(dl) && dl != 0 {
				fmt.Fprintf(w, "  loss %+.6f", dl)
			}
			fmt.Fprintln(w)
		}
	}
	return key != "" || len(a) != len(b)
}
