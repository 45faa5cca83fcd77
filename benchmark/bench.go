package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"fedprox/internal/core"
	"fedprox/internal/tensor"
)

// metricDef names a metric and its unit; BENCHMARK.json repeats both
// and adds the direction and the bound (smoke_test.go holds the two
// lists equal).
type metricDef struct{ name, unit string }

// endToEnd metrics come from the untraced runs. The issue's failed_share
// is the result's attempted and failed counts instead: a metric may not
// read 0, and that one always should.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"rounds_per_s", "1/s"},
	{"update_bytes_per_round", "B"},
	{"peak_rss_mb", "MB"},
	{"final_train_loss", "loss"},
	{"final_test_acc", "ratio"},
}

// perLayer metrics come from the traced runs and the unit ladder. One
// that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"core.broadcast_s", "s"},
	{"core.device_phase_s", "s"},
	{"core.fold_s", "s"},
	{"core.eval_s", "s"},
	{"core.other_s", "s"},
	{"core.attributed_share", "ratio"},
	{"core.rounds", "count"},
	{"core.dispatches", "count"},
	{"core.replies_folded", "count"},
	{"core.replies_dropped", "count"},
	{"core.evals", "count"},
	{"core.events", "count"},
	{"core.round_ms_p50", "ms"},
	{"core.round_ms_p95", "ms"},
	{"core.uplink_bytes", "B"},
	{"core.downlink_bytes", "B"},
	{"solver.solve_calls", "count"},
	{"solver.epochs", "count"},
	{"solver.solve_busy_s", "s"},
	{"solver.solve_ms_p50", "ms"},
	{"solver.solve_ms_p95", "ms"},
	{"data.shard_calls", "count"},
	{"data.shard_busy_s", "s"},
	{"data.shard_us_p50", "us"},
	{"metrics.eval_devices_per_s", "1/s"},
	{"fednet.wire_bytes_read", "B"},
	{"fednet.wire_bytes_written", "B"},
	{"fednet.wire_mb_per_s", "MB/s"},
	{"fednet.framing_overhead_share", "ratio"},
	{"fednet.sim_twin_s", "s"},
	{"fednet.transport_share", "ratio"},
	{"fednet.round_ms", "ms"},
	{"vtime.virtual_seconds", "s"},
	{"vtime.arrivals", "count"},
	{"obs.trace_overhead_share", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.num_gc", "count"},
	{"tensor.dot_ns_per_elem", "ns"},
	{"tensor.axpy_ns_per_elem", "ns"},
	{"model.grad_ns_per_example", "ns"},
	{"model.loss_ns_per_example", "ns"},
	{"solver.sgd_epoch_ns_per_example", "ns"},
	{"core.device_dispatch_f64_us", "us"},
	{"core.device_dispatch_f32_us", "us"},
	{"core.fold_us", "us"},
	{"comm.encode_ns_per_coord", "ns"},
	{"comm.decode_ns_per_coord", "ns"},
	{"comm.wire_bytes_per_update", "B"},
	{"metrics.fleet_loss_s", "s"},
	{"metrics.fleet_accuracy_s", "s"},
	{"frand.norm_ns", "ns"},
	{"vtime.event_ns", "ns"},
	{"core.sim_round_ms", "ms"},
}

const (
	// A run builds its inputs setupReps times and reports the median; a
	// build of milliseconds (the lazy fleet) repeats up to ten times as
	// often, for a fortieth of the run's seconds, to steady that median.
	setupReps = 5
	minUnits  = 3 // untraced repetitions of the unit of work, however slow the box
)

// sample is one run of a workload's unit of work.
type sample struct {
	wall    time.Duration
	hist    *core.History
	probes  *probes    // nil when untraced
	phases  phases     // traced: the event-interval attribution of the run
	wireIn  int64      // fednet: Server.BytesOnWire
	wireOut int64      //
	mem     [3]float64 // untraced: MemStats deltas over the run (MB allocated, mallocs, GC cycles)
}

// result is what one invocation measured.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	// The samples behind run_s and setup_s, in seconds.
	repetitions, setups []float64
}

func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// newProbes returns the decorators of one traced run of in.
func (w *workload) newProbes(in *inputs) *probes {
	pr := &probes{sink: newWallSink(time.Now)}
	if in.cfg.Precision != tensor.F32 {
		pr.solver = &timedSolver{}
	}
	if !w.fednet {
		pr.fleet = &timedFleet{}
	}
	return pr
}

// runUnit deploys and runs one unit of w on in, traced when pr is set.
func (w *workload) runUnit(in *inputs, pr *probes) (sample, error) {
	u, err := w.deploy(in, pr)
	if err != nil {
		return sample{}, err
	}
	defer u.close()
	s := sample{probes: pr}
	var before, after runtime.MemStats
	if pr == nil {
		runtime.ReadMemStats(&before)
		start := time.Now()
		s.hist, err = u.run()
		s.wall = time.Since(start)
		runtime.ReadMemStats(&after)
		s.mem = [3]float64{
			float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
			float64(after.Mallocs - before.Mallocs),
			float64(after.NumGC - before.NumGC),
		}
	} else {
		// The sink's clock is the run's clock, so the phases and the
		// wall they are shares of come from the same readings.
		pr.sink.begin()
		s.hist, err = u.run()
		s.wall = pr.sink.elapsed()
		s.phases = attribute(pr.sink.evs, s.wall)
	}
	if err != nil {
		return s, fmt.Errorf("%s: %w", w.name, err)
	}
	if u.srv != nil {
		s.wireIn, s.wireOut = u.srv.BytesOnWire()
	}
	return s, nil
}

// measure is one invocation: build the inputs several times, warm up,
// repeat the unit of work until seconds have passed, verify every run,
// and report the end-to-end metrics, or with trace the per-layer ones.
func measure(w *workload, seed uint64, seconds float64, trace bool) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	var in *inputs
	var setups []float64
	total := time.Duration(seconds * float64(time.Second))
	for begin := time.Now(); len(setups) < setupReps || (time.Since(begin) < total/40 && len(setups) < 10*setupReps); {
		start := time.Now()
		in = w.build(seed, w.rounds)
		u, err := w.deploy(in, nil)
		if err != nil {
			return nil, err
		}
		u.close()
		setups = append(setups, time.Since(start).Seconds())
	}

	// A few untimed rounds fill the tensor pools and page the data in.
	warm := *in
	warm.cfg = w.config(max(w.rounds/15, 2), seed)
	if _, err := w.runUnit(&warm, nil); err != nil {
		return nil, err
	}

	budget := total
	if trace {
		budget = total * 6 / 10 // the ladder takes the rest
	}
	var plain, traced []sample
	for start := time.Now(); len(plain) < minUnits || time.Since(start) < budget; {
		s, err := w.runUnit(in, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, s)
		if trace {
			if s, err = w.runUnit(in, w.newProbes(in)); err != nil {
				return nil, err
			}
			traced = append(traced, s)
		}
	}
	if !trace {
		// One traced run, outside the measurement, for the checks that
		// need events: dispatch counts and that tracing is inert.
		s, err := w.runUnit(in, w.newProbes(in))
		if err != nil {
			return nil, err
		}
		traced = append(traced, s)
	}

	twin, err := w.verify(res, in, plain, traced, trace)
	if err != nil {
		return nil, err
	}

	// The reference box is shared, and what it shares slows a run for
	// seconds at a time and never speeds one up: over ten runs the median
	// repetition spreads 4-29% of its median, the fastest 3-12%. So a
	// run's time is that of its fastest repetition.
	runS := slices.Min(walls(plain))
	res.repetitions, res.setups = walls(plain), setups
	final := plain[0].hist.Final()
	if !trace {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, err
		}
		res.metrics = map[string]float64{
			"setup_s":                median(setups),
			"run_s":                  runS,
			"rounds_per_s":           float64(w.rounds) / runS,
			"update_bytes_per_round": float64(updateBytes(final.Cost)) / float64(w.rounds),
			"peak_rss_mb":            float64(ru.Maxrss) * 1024 / 1e6, // Linux reports KiB
			"final_train_loss":       final.TrainLoss,
			"final_test_acc":         final.TestAcc,
		}
		return res, nil
	}

	perRun := make([]map[string]float64, len(traced))
	for i, s := range traced {
		perRun[i] = w.layerMetrics(s, in)
	}
	for _, def := range perLayer {
		vals := make([]float64, len(perRun))
		for i, m := range perRun {
			vals[i] = m[def.name]
		}
		res.metrics[def.name] = median(vals)
	}
	for i, name := range []string{"runtime.alloc_mb", "runtime.mallocs", "runtime.num_gc"} {
		vals := make([]float64, len(plain))
		for j, s := range plain {
			vals[j] = s.mem[i]
		}
		res.metrics[name] = median(vals)
	}
	res.metrics["obs.trace_overhead_share"] = slices.Min(walls(traced))/runS - 1
	res.metrics["core.sim_round_ms"] = 1e3 * runS / float64(w.rounds)
	if w.fednet {
		res.metrics["fednet.sim_twin_s"] = twin
		res.metrics["fednet.transport_share"] = 1 - twin/runS
		res.metrics["fednet.round_ms"] = 1e3 * runS / float64(w.rounds)
		res.metrics["core.sim_round_ms"] = 1e3 * twin / float64(w.rounds)
	}
	for name, v := range ladder(seed, total-budget) {
		res.metrics[name] = v
	}
	return res, nil
}

// verify runs the output checks over every sample. Each dispatch and
// each check is one attempted operation. It returns the wall time of
// the fednet workload's in-process twin, the fastest of minUnits runs
// when timed is set.
func (w *workload) verify(res *result, in *inputs, plain, traced []sample, timed bool) (float64, error) {
	want := fingerprint(plain[0].hist)
	for _, s := range plain[1:] {
		res.check(fingerprint(s.hist) == want, "a repeated run's History differs from the first run's")
	}
	for _, s := range traced {
		res.check(fingerprint(s.hist) == want, "a traced run's History differs from the untraced run's")
	}
	for _, s := range plain {
		res.attempted += w.rounds * w.clients
		for _, a := range s.hist.Arrivals {
			if a.Drop == core.DropLost || a.Drop == core.DropDeadline || a.Drop == core.DropBudget {
				res.failed++
			}
		}
	}

	h := plain[0].hist
	first, final := h.Points[0], h.Final()
	points := 1 + w.rounds/in.cfg.EvalEvery
	if w.rounds%in.cfg.EvalEvery != 0 {
		points++
	}
	res.check(len(h.Points) == points && final.Round == w.rounds, "%d points ending at round %d, want %d ending at %d", len(h.Points), final.Round, points, w.rounds)
	res.check(!math.IsNaN(final.TrainLoss+final.TestAcc) && !math.IsInf(final.TrainLoss, 0), "final loss %v or accuracy %v not finite", final.TrainLoss, final.TestAcc)
	if w.maxLossShare > 0 {
		res.check(final.TrainLoss < w.maxLossShare*first.TrainLoss, "final loss %v not below %v of initial %v", final.TrainLoss, w.maxLossShare, first.TrainLoss)
		res.check(final.TestAcc >= w.minAcc, "final accuracy %v below %v", final.TestAcc, w.minAcc)
	} else {
		res.check(final.TrainLoss >= w.lossBand[0] && final.TrainLoss <= w.lossBand[1], "final loss %v outside %v", final.TrainLoss, w.lossBand)
	}

	p := traced[0].phases
	folds := w.rounds * w.clients
	res.check(p.folded == folds && p.dispatches == p.folded+p.dropped && len(p.rounds) == w.rounds && p.evals == points,
		"%d dispatches, %d folded and %d dropped replies, %d rounds, %d evals; want %d folded, %d rounds, %d evals",
		p.dispatches, p.folded, p.dropped, len(p.rounds), p.evals, folds, w.rounds, points)
	for _, s := range traced {
		share := 1 - s.phases.other.Seconds()/s.wall.Seconds()
		res.check(share >= attributedFloor, "phases cover %.3f of the traced wall, below %v", share, attributedFloor)
	}

	if in.cfg.Precision == tensor.F32 {
		ref := *in
		ref.cfg.Precision = tensor.F64
		s, err := w.runUnit(&ref, nil)
		if err != nil {
			return 0, err
		}
		wide := s.hist.Final().TrainLoss
		res.check(math.Abs(final.TrainLoss-wide) <= 0.02*wide, "f32 final loss %v not within 2%% of f64 %v", final.TrainLoss, wide)
	}
	twin := 0.0
	if w.fednet {
		// The repo's cross-executor parity: the same config through the
		// in-process driver yields the same trajectory.
		runs := 1
		if timed {
			runs = minUnits
		}
		twins := make([]float64, runs)
		for i := range twins {
			start := time.Now()
			sim, err := core.Run(in.mdl, in.fed, in.cfg)
			if err != nil {
				return 0, err
			}
			twins[i] = time.Since(start).Seconds()
			res.check(fingerprint(sim) == want, "fednet History differs from the same config through core.Run")
		}
		twin = slices.Min(twins)
	}
	return twin, nil
}

// layerMetrics derives the per-layer metrics of one traced run.
func (w *workload) layerMetrics(s sample, in *inputs) map[string]float64 {
	p := s.phases
	wall := s.wall.Seconds()
	cost := s.hist.Final().Cost
	m := map[string]float64{
		"core.broadcast_s":           p.broadcast.Seconds(),
		"core.device_phase_s":        p.device.Seconds(),
		"core.fold_s":                p.fold.Seconds(),
		"core.eval_s":                p.eval.Seconds(),
		"core.other_s":               p.other.Seconds(),
		"core.attributed_share":      1 - p.other.Seconds()/wall,
		"core.rounds":                float64(len(p.rounds)),
		"core.dispatches":            float64(p.dispatches),
		"core.replies_folded":        float64(p.folded),
		"core.replies_dropped":       float64(p.dropped),
		"core.evals":                 float64(p.evals),
		"core.events":                float64(p.nEvs),
		"core.round_ms_p50":          ms(percentile(p.rounds, 50)),
		"core.round_ms_p95":          ms(percentile(p.rounds, 95)),
		"core.uplink_bytes":          float64(cost.UplinkBytes),
		"core.downlink_bytes":        float64(cost.DownlinkBytes),
		"metrics.eval_devices_per_s": float64(p.evals*in.fleet.NumDevices()) / p.eval.Seconds(),
		"vtime.arrivals":             float64(len(s.hist.Arrivals)),
	}
	if v := s.hist.VirtualDuration(); !math.IsNaN(v) {
		m["vtime.virtual_seconds"] = v
	}
	if t := s.probes.solver; t != nil {
		m["solver.solve_calls"] = float64(len(t.durs))
		m["solver.epochs"] = float64(t.epochs.Load())
		m["solver.solve_busy_s"] = t.busy().Seconds()
		m["solver.solve_ms_p50"] = ms(percentile(t.durs, 50))
		m["solver.solve_ms_p95"] = ms(percentile(t.durs, 95))
	}
	if t := s.probes.fleet; t != nil {
		m["data.shard_calls"] = float64(len(t.durs))
		m["data.shard_busy_s"] = t.busy().Seconds()
		m["data.shard_us_p50"] = 1e3 * ms(percentile(t.durs, 50))
	}
	if w.fednet {
		wire := float64(s.wireIn + s.wireOut)
		m["fednet.wire_bytes_read"] = float64(s.wireIn)
		m["fednet.wire_bytes_written"] = float64(s.wireOut)
		m["fednet.wire_mb_per_s"] = wire / 1e6 / wall
		m["fednet.framing_overhead_share"] = wire/float64(updateBytes(cost)) - 1
	}
	return m
}

// updateBytes is the encoded model-update traffic of a run, which means
// the same on every executor.
func updateBytes(c core.Cost) int64 { return c.UplinkBytes + c.DownlinkBytes + c.EvalBytes }

// fingerprint identifies a run's trajectory bit for bit: every evaluated
// point and every arrival, less the label and the transport's own byte
// counts, which only fednet fills.
func fingerprint(h *core.History) [sha256.Size]byte {
	pts := append([]core.Point(nil), h.Points...)
	for i := range pts {
		pts[i].Cost.WireUplinkBytes, pts[i].Cost.WireDownlinkBytes = 0, 0
	}
	return sha256.Sum256([]byte(fmt.Sprint(pts, h.Arrivals)))
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall.Seconds()
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
