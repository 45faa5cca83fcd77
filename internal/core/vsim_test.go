package core

import (
	"math"
	"strings"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/tensor"
	"fedprox/internal/vtime"
)

// historiesEqual compares two histories bit for bit: float fields must
// carry identical IEEE-754 bits (NaN == NaN here, unlike
// reflect.DeepEqual, since untracked columns are NaN by design).
func historiesEqual(a, b *History) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Label != b.Label || len(a.Points) != len(b.Points) || len(a.Arrivals) != len(b.Arrivals) {
		return false
	}
	for i := range a.Points {
		p, q := a.Points[i], b.Points[i]
		if p.Round != q.Round || p.Participants != q.Participants || p.Cost != q.Cost {
			return false
		}
		for _, f := range [][2]float64{
			{p.TrainLoss, q.TrainLoss}, {p.TestAcc, q.TestAcc}, {p.GradVar, q.GradVar},
			{p.B, q.B}, {p.Mu, q.Mu}, {p.MeanGamma, q.MeanGamma},
			{p.MeanStaleness, q.MeanStaleness}, {p.MaxStaleness, q.MaxStaleness},
			{p.VirtualSeconds, q.VirtualSeconds},
			{p.MeanEpochsDone, q.MeanEpochsDone}, {p.PartialFraction, q.PartialFraction},
		} {
			if !bits(f[0], f[1]) {
				return false
			}
		}
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			return false
		}
	}
	return true
}

// vtimeModel builds a deterministic latency model with a 10x-slow tail
// over n devices.
func vtimeModel(n int, seed uint64) *vtime.Model {
	return vtime.MustModel(
		vtime.UniformCompute{SecondsPerEpoch: 0.2, Speed: vtime.SlowTail(n, 0.1, 10)},
		vtime.Net{UplinkBps: 1e6, DownlinkBps: 4e6, Latency: 0.01, JitterStd: 0.2},
		seed,
	)
}

func vtimeAsyncConfig(mode AggregationMode, n int) Config {
	cfg := FedProx(6, 5, 3, 0.01, 1)
	cfg.StragglerFraction = 0.5
	cfg.EvalEvery = 2
	cfg.Async = AsyncConfig{Mode: mode}
	cfg.VTime = VTimeConfig{Model: vtimeModel(n, 17)}
	return cfg
}

// TestAsyncRequiresLatencyModel: async configs without a vtime model are
// still rejected, with a message pointing at the fix, and the
// policy-only knobs demand a model too.
func TestAsyncRequiresLatencyModel(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := FedProx(4, 5, 3, 0.01, 1)
	cfg.Async = AsyncConfig{Mode: AsyncTotal}
	_, err := Run(mdl, fed, cfg)
	if err == nil {
		t.Fatal("async config without a latency model accepted")
	}
	if !strings.Contains(err.Error(), "VTime.Model") {
		t.Fatalf("rejection does not point at Config.VTime.Model: %v", err)
	}
	bad := FedProx(4, 5, 3, 0.01, 1)
	bad.VTime = VTimeConfig{DeadlineSeconds: 1} // policy without a model
	if err := bad.Validate(); err == nil {
		t.Fatal("deadline without VTime.Model accepted")
	}
}

// TestVTimeAsyncDeterministic is the tentpole's reproducibility
// criterion: two virtual-time async runs under the same seed produce
// bit-identical Histories — points, costs, staleness, virtual clocks,
// and the full arrival trace.
func TestVTimeAsyncDeterministic(t *testing.T) {
	for _, mode := range []AggregationMode{AsyncTotal, Buffered} {
		t.Run(mode.String(), func(t *testing.T) {
			mdl, fed := tinyWorkload()
			cfg := vtimeAsyncConfig(mode, fed.NumDevices())
			if mode == Buffered {
				cfg.Async.BufferK = 3
			}
			run := func() *History {
				h, err := Run(mdl, fed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			a, b := run(), run()
			if !historiesEqual(a, b) {
				t.Fatalf("same seed produced different histories:\n%v\nvs\n%v", a, b)
			}
			if len(a.Arrivals) == 0 {
				t.Fatal("no arrival trace recorded")
			}
			if !a.TracksVirtualTime() {
				t.Fatal("history does not track virtual time")
			}
			if !a.TracksStaleness() {
				t.Fatal("async history has no staleness columns")
			}
			if !(a.Final().TrainLoss < a.Points[0].TrainLoss) {
				t.Fatalf("virtual-time %s did not improve: %g -> %g", mode, a.Points[0].TrainLoss, a.Final().TrainLoss)
			}
		})
	}
}

// TestVTimeAsyncSeedChangesTrajectory: different seeds see different
// environments (the determinism above is not a constant function).
func TestVTimeAsyncSeedChangesTrajectory(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := vtimeAsyncConfig(AsyncTotal, fed.NumDevices())
	a, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	b, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if historiesEqual(a, b) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// TestFreshFoldReproducesSyncUpdate is the satellite cross-check: a
// buffered flush of fresh replies (staleness 0) at alpha = 1 reproduces
// the synchronous round update — the weighted mean of the returned
// models — for both sampling schemes.
func TestFreshFoldReproducesSyncUpdate(t *testing.T) {
	w0 := []float64{0.5, -1.25, 2}
	params := [][]float64{
		{1, 0, -1},
		{-0.5, 2, 0.25},
		{3, 1, 1},
	}
	weights := []float64{10, 30, 60}
	for _, sampling := range []SamplingScheme{UniformWeightedAvg, WeightedSimpleAvg} {
		sync := append([]float64(nil), w0...)
		aggregate(sync, params, weights, sampling)

		async := append([]float64(nil), w0...)
		var buffer []StaleDelta
		for i, p := range params {
			delta := make([]float64, len(p))
			for j := range p {
				delta[j] = p[j] - w0[j] // fresh: every view is w0
			}
			buffer = append(buffer, StaleDelta{Delta: delta, Weight: weights[i], Version: 0})
		}
		if !FoldStaleDeltas(async, buffer, 0, sampling, 1 /* alpha */, 0.5) {
			t.Fatal("fold did not advance the model")
		}
		for j := range sync {
			if math.Abs(sync[j]-async[j]) > 1e-12 {
				t.Fatalf("%v: fresh fold diverges from sync update at %d: %g vs %g", sampling, j, async[j], sync[j])
			}
		}
	}
}

// TestVTimeAsyncMatchesWorkBudget: the async schedule folds exactly
// Rounds*roundSize replies, milestones evaluate on the sync cadence,
// every fold shows up in the arrival trace, and no folded reply's event
// reports a negative staleness.
func TestVTimeAsyncMatchesWorkBudget(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := vtimeAsyncConfig(AsyncTotal, fed.NumDevices())
	var replies replyTape
	cfg.Trace = &replies
	h, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := 1 + cfg.Rounds/cfg.EvalEvery
	if len(h.Points) != wantPoints {
		t.Fatalf("points = %d, want %d", len(h.Points), wantPoints)
	}
	folded := 0
	for _, e := range replies {
		if e.Disposition == ArrivalFolded.String() && e.Staleness < 0 {
			t.Fatalf("folded reply with negative staleness: %+v", e)
		}
	}
	for _, a := range h.Arrivals {
		if a.Drop == ArrivalFolded {
			folded++
		}
		if a.Arrived < a.Sent {
			t.Fatalf("arrival precedes dispatch: %+v", a)
		}
	}
	if want := cfg.Rounds * cfg.ClientsPerRound; folded != want {
		t.Fatalf("folded %d replies, want %d", folded, want)
	}
	for _, p := range h.Points[1:] {
		if p.Participants != cfg.ClientsPerRound {
			t.Fatalf("milestone %d participants %d, want %d", p.Round, p.Participants, cfg.ClientsPerRound)
		}
	}
	// The virtual clock is monotone over the trajectory.
	for i := 1; i < len(h.Points); i++ {
		if h.Points[i].VirtualSeconds < h.Points[i-1].VirtualSeconds {
			t.Fatalf("virtual clock ran backwards: %g -> %g", h.Points[i-1].VirtualSeconds, h.Points[i].VirtualSeconds)
		}
	}
}

// TestVTimeSyncChargesRounds: a synchronous run under a latency model
// records a growing virtual clock, and a 10x-slow tail makes it slower
// than the same run over a uniform fleet.
func TestVTimeSyncChargesRounds(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	base := FedProx(6, 5, 3, 0.01, 1)
	base.EvalEvery = 3
	run := func(speed func(int) float64) *History {
		cfg := base
		cfg.VTime = VTimeConfig{Model: vtime.MustModel(
			vtime.UniformCompute{SecondsPerEpoch: 0.2, Speed: speed},
			vtime.Net{UplinkBps: 1e6, DownlinkBps: 4e6, Latency: 0.01},
			5,
		)}
		h, err := Run(mdl, fed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	uniform := run(nil)
	tailed := run(vtime.SlowTail(n, 0.2, 10))
	if !uniform.TracksVirtualTime() {
		t.Fatal("sync vtime run does not track virtual time")
	}
	if d := uniform.VirtualDuration(); !(d > 0) {
		t.Fatalf("virtual duration %g, want positive", d)
	}
	if !(tailed.VirtualDuration() > uniform.VirtualDuration()) {
		t.Fatalf("slow tail did not slow the sync run: %g vs %g", tailed.VirtualDuration(), uniform.VirtualDuration())
	}
	// Timing must not perturb the trajectory: the same seed yields the
	// same losses with and without the clock.
	bare, err := Run(mdl, fed, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bare.Points {
		if bare.Points[i].TrainLoss != uniform.Points[i].TrainLoss {
			t.Fatalf("virtual clock changed the trajectory at point %d: %g vs %g", i, uniform.Points[i].TrainLoss, bare.Points[i].TrainLoss)
		}
	}
}

// TestVTimeSyncDeadlineDropsTail: with a deadline between the fast pack
// and the slow tail, tail replies are dropped (wasted) and the round
// closes at the deadline, so the deadline run is both faster and
// tail-starved relative to the unconstrained one.
func TestVTimeSyncDeadlineDropsTail(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	mk := func(deadline float64) Config {
		cfg := FedProx(6, 8, 3, 0.01, 1)
		cfg.EvalEvery = 6
		cfg.VTime = VTimeConfig{
			Model: vtime.MustModel(
				vtime.UniformCompute{SecondsPerEpoch: 0.2, Speed: vtime.SlowTail(n, 0.5, 10)},
				vtime.Net{UplinkBps: 1e8, DownlinkBps: 1e8},
				5,
			),
			DeadlineSeconds: deadline,
		}
		return cfg
	}
	free, err := Run(mdl, fed, mk(0))
	if err != nil {
		t.Fatal(err)
	}
	// Fast devices: 3 epochs * 0.2s = 0.6s; slow tail: 6s. Deadline 1s
	// accepts the pack, drops the tail.
	capped, err := Run(mdl, fed, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if !(capped.VirtualDuration() < free.VirtualDuration()) {
		t.Fatalf("deadline did not shorten the run: %g vs %g", capped.VirtualDuration(), free.VirtualDuration())
	}
	drops := 0
	for _, a := range capped.Arrivals {
		if a.Drop == DropDeadline {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("deadline dropped nothing despite a 10x tail")
	}
	if w := capped.Final().Cost.WastedEpochs; w == 0 {
		t.Fatal("deadline drops did not count as wasted epochs")
	}
	for _, a := range free.Arrivals {
		if a.Drop != ArrivalFolded {
			t.Fatalf("unconstrained run dropped a reply: %+v", a)
		}
	}
}

// TestVTimeSyncByteBudgetDropsTail: a per-round wire-byte budget below
// the full round's traffic cuts the arrival-order tail — the
// ROADMAP's codec-aware straggler policy.
func TestVTimeSyncByteBudgetDropsTail(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	paramBytes := rawBytes(mdl.NumParams(), tensor.F64)
	cfg := FedProx(4, 6, 3, 0.01, 1)
	cfg.EvalEvery = 4
	cfg.VTime = VTimeConfig{
		Model: vtime.MustModel(
			vtime.UniformCompute{SecondsPerEpoch: 0.1, Speed: vtime.SlowTail(n, 0.3, 10)},
			vtime.Net{UplinkBps: 1e6, DownlinkBps: 1e6},
			3,
		),
		// Budget for roughly 4 of the 6 round-trips.
		RoundBytes: 4 * 2 * paramBytes,
	}
	h, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget, folded := 0, 0
	for _, a := range h.Arrivals {
		switch a.Drop {
		case DropBudget:
			budget++
		case ArrivalFolded:
			folded++
		}
	}
	if budget == 0 {
		t.Fatal("byte budget dropped nothing")
	}
	if folded == 0 {
		t.Fatal("byte budget dropped everything")
	}
	// The budget drops the LATE tail: every folded reply in a round
	// arrived no later than any budget-dropped reply of the same round.
	bySent := map[float64][]Arrival{}
	for _, a := range h.Arrivals {
		bySent[a.Sent] = append(bySent[a.Sent], a)
	}
	for _, round := range bySent {
		worstFold, bestDrop := math.Inf(-1), math.Inf(1)
		for _, a := range round {
			if a.Drop == ArrivalFolded && a.Arrived > worstFold {
				worstFold = a.Arrived
			}
			if a.Drop == DropBudget && a.Arrived < bestDrop {
				bestDrop = a.Arrived
			}
		}
		if worstFold > bestDrop {
			t.Fatalf("budget dropped an earlier arrival than one it kept: fold@%g vs drop@%g", worstFold, bestDrop)
		}
	}
}

// TestVTimeAsyncDeadlineAndLoss: per-dispatch deadlines and network loss
// waste the affected work but the schedule still completes its fold
// target deterministically.
func TestVTimeAsyncDeadlineAndLoss(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	cfg := vtimeAsyncConfig(AsyncTotal, n)
	cfg.VTime.Model = vtime.MustModel(
		vtime.UniformCompute{SecondsPerEpoch: 0.2, Speed: vtime.SlowTail(n, 0.2, 10)},
		vtime.Net{UplinkBps: 1e6, DownlinkBps: 4e6, Latency: 0.01, DropProb: 0.1},
		23,
	)
	cfg.VTime.DeadlineSeconds = 2 // fast round-trips fit, 10x tail does not
	a, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lost, late, folded int
	for _, ar := range a.Arrivals {
		switch ar.Drop {
		case DropLost:
			lost++
		case DropDeadline:
			late++
		case ArrivalFolded:
			folded++
		}
	}
	if lost == 0 || late == 0 {
		t.Fatalf("expected both loss and deadline drops, got lost=%d late=%d", lost, late)
	}
	if want := cfg.Rounds * cfg.ClientsPerRound; folded != want {
		t.Fatalf("folded %d, want %d despite drops", folded, want)
	}
	if a.Final().Cost.WastedEpochs == 0 {
		t.Fatal("drops did not waste epochs")
	}
	b, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !historiesEqual(a, b) {
		t.Fatal("drops broke determinism")
	}
}

// TestVTimeAsyncImpossibleBudgetFails: a byte budget below a single
// round-trip can never fold anything; the engine must error out rather
// than dispatch forever.
func TestVTimeAsyncImpossibleBudgetFails(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := vtimeAsyncConfig(AsyncTotal, fed.NumDevices())
	cfg.Rounds = 1
	cfg.VTime.RoundBytes = 1 // below any encoded update
	if _, err := Run(mdl, fed, cfg); err == nil {
		t.Fatal("impossible byte budget did not fail")
	}
}

// TestVTimeAsyncWithCodec: virtual-time async composes with stateful
// codecs (chained downlinks, error feedback) and transfer times follow
// the encoded sizes: a qsgd run moves fewer bytes and finishes sooner
// than a raw run on the same slow network.
func TestVTimeAsyncWithCodec(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	run := func(spec comm.Spec) *History {
		cfg := vtimeAsyncConfig(AsyncTotal, n)
		cfg.VTime.Model = vtime.MustModel(
			vtime.UniformCompute{SecondsPerEpoch: 0.01},
			vtime.Net{UplinkBps: 5e4, DownlinkBps: 5e4}, // slow wire: transfer dominates
			17,
		)
		cfg.Codec = spec
		h, err := Run(mdl, fed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	raw := run(comm.Spec{Name: "raw"})
	q := run(comm.Spec{Name: "qsgd", Bits: 4})
	if !(q.Final().Cost.UplinkBytes < raw.Final().Cost.UplinkBytes) {
		t.Fatalf("qsgd moved more bytes than raw: %d vs %d", q.Final().Cost.UplinkBytes, raw.Final().Cost.UplinkBytes)
	}
	if !(q.VirtualDuration() < raw.VirtualDuration()) {
		t.Fatalf("qsgd not faster than raw on a slow wire: %g vs %g", q.VirtualDuration(), raw.VirtualDuration())
	}
	if q.Final().Cost.EvalBytes == 0 {
		t.Fatal("codec run recorded no eval bytes")
	}
	if !(q.Final().TrainLoss < q.Points[0].TrainLoss) {
		t.Fatal("qsgd async run did not improve")
	}
}

// TestVTimeEvalChargedOnClock: eval traffic costs virtual time — more
// frequent evaluation makes the same schedule take longer on the clock
// (the satellite bugfix: eval transfers hit the clock, not just
// Cost.EvalBytes).
func TestVTimeEvalChargedOnClock(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	run := func(evalEvery int) *History {
		cfg := FedProx(6, 5, 3, 0.01, 1)
		cfg.EvalEvery = evalEvery
		cfg.VTime = VTimeConfig{Model: vtime.MustModel(
			vtime.UniformCompute{SecondsPerEpoch: 0.01, Speed: vtime.SlowTail(n, 0.1, 10)},
			vtime.Net{UplinkBps: 1e5, DownlinkBps: 1e5}, // slow wire so eval transfers matter
			7,
		)}
		h, err := Run(mdl, fed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	sparse := run(6)
	dense := run(1)
	if !(dense.VirtualDuration() > sparse.VirtualDuration()) {
		t.Fatalf("eval traffic costs no virtual time: dense %g vs sparse %g", dense.VirtualDuration(), sparse.VirtualDuration())
	}
	// Guard against a silently zero den in the fold helper: an empty
	// buffer must not advance or mutate the model.
	w := []float64{1, 2}
	if FoldStaleDeltas(w, nil, 0, UniformWeightedAvg, 1, 0.5) {
		t.Fatal("empty buffer advanced the model")
	}
	if w[0] != 1 || w[1] != 2 {
		t.Fatal("empty fold mutated w")
	}
}
