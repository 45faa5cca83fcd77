package core

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/data"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
	"fedprox/internal/obs"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// fixedBudget grants every dispatch the same epoch allowance.
type fixedBudget int

func (b fixedBudget) EpochBudget(tag, device, requested int) int { return int(b) }

// TestDeviceTruncatesToBudget: the device runtime enforces the dispatch's
// compute budget — the solve runs min(Epochs, EpochBudget) epochs, the
// reply reports it, and the result is bit-identical to solving the
// truncated epoch count directly.
func TestDeviceTruncatesToBudget(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.1))
	mdl := linear.ForDataset(fed)
	dev := NewDevice(mdl, fed.Shards, DeviceOptions{})

	shard := fed.Shards[0]
	w0 := mdl.InitParams(frand.New(3))
	d := Dispatch{
		Device:       shard.ID,
		Epochs:       8,
		EpochBudget:  3,
		LearningRate: 0.01,
		BatchSize:    10,
		BatchSeed:    frand.New(5).State(),
		View:         w0,
	}
	r, err := dev.HandleDispatch(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.EpochsDone != 3 {
		t.Fatalf("EpochsDone = %d, want the budget 3", r.EpochsDone)
	}
	want := solver.SGD(mdl, shard.Train, w0, d.SolverConfig(), 3, frand.New(d.BatchSeed))
	for i := range want {
		if r.Params[i] != want[i] {
			t.Fatalf("truncated solve differs from a direct 3-epoch solve at coordinate %d", i)
		}
	}

	// A budget at or above the target changes nothing.
	d.EpochBudget = 8
	r, err = dev.HandleDispatch(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.EpochsDone != 8 {
		t.Fatalf("EpochsDone = %d, want the full target 8", r.EpochsDone)
	}
}

// TestDeviceBudgetMatchesReducedEpochs: a run whose devices are uniformly
// budget-limited to b epochs reproduces, bit for bit, a run dispatched at
// b epochs — the truncation composes with nothing else.
func TestDeviceBudgetMatchesReducedEpochs(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)

	budgeted := FedProx(6, 5, 8, 0.01, 1)
	budgeted.EvalEvery = 2
	budgeted.DeviceBudget = fixedBudget(3)

	reduced := FedProx(6, 5, 3, 0.01, 1)
	reduced.EvalEvery = 2

	a, err := Run(mdl, fed, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mdl, fed, reduced)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].TrainLoss != b.Points[i].TrainLoss {
			t.Fatalf("point %d: budgeted loss %.17g != reduced-epoch loss %.17g",
				i, a.Points[i].TrainLoss, b.Points[i].TrainLoss)
		}
	}
	// The budgeted run charges only the realized work.
	fa, fb := a.Final().Cost, b.Final().Cost
	if fa.DeviceEpochs != fb.DeviceEpochs {
		t.Fatalf("budgeted run charged %d device epochs, want %d (the realized work)",
			fa.DeviceEpochs, fb.DeviceEpochs)
	}
	fin := a.Final()
	if !a.TracksWork() || fin.MeanEpochsDone != 3 {
		t.Fatalf("work columns: tracked=%v mean=%g, want tracked mean 3", a.TracksWork(), fin.MeanEpochsDone)
	}
	if fin.PartialFraction != 1 {
		t.Fatalf("PartialFraction = %g, want 1 (every update truncated below its 8-epoch target)", fin.PartialFraction)
	}
	if b.TracksWork() {
		t.Fatal("run without a budget model must not track work columns")
	}
	if !math.IsNaN(b.Final().MeanEpochsDone) {
		t.Fatal("MeanEpochsDone must be NaN without a budget model")
	}
}

// TestDeviceBudgetClampsLegacyDropCharge: never-contacted dropped
// stragglers are charged a counterfactual full run — but a device-side budget bounds that
// counterfactual too, so a drop-vs-aggregate cost comparison under the
// same fleet stays fair.
func TestDeviceBudgetClampsLegacyDropCharge(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)

	drop := FedAvg(6, 8, 8, 0.01)
	drop.StragglerFraction = 0.9
	drop.EvalEvery = 3

	unbudgeted, err := Run(mdl, fed, drop)
	if err != nil {
		t.Fatal(err)
	}
	budgeted := drop
	budgeted.DeviceBudget = fixedBudget(3)
	capped, err := Run(mdl, fed, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	uc, cc := unbudgeted.Final().Cost, capped.Final().Cost
	if cc.WastedEpochs >= uc.WastedEpochs {
		t.Fatalf("budgeted drop run wasted %d epochs, unbudgeted %d — the budget must bound the counterfactual charge",
			cc.WastedEpochs, uc.WastedEpochs)
	}
	if cc.DeviceEpochs >= uc.DeviceEpochs {
		t.Fatalf("budgeted drop run charged %d device epochs, unbudgeted %d", cc.DeviceEpochs, uc.DeviceEpochs)
	}
}

// TestDeviceUplinkCounterMatchesCoordinator: the device runtime prices
// an uncoded reply as the coordinator does, so on a lossless sync run
// with no codec /metrics' device-side uplink counter equals the
// coordinator's, at both widths.
func TestDeviceUplinkCounterMatchesCoordinator(t *testing.T) {
	m, fed := tinyWorkload()
	for _, prec := range []tensor.Precision{tensor.F64, tensor.F32} {
		cfg := FedProx(3, 6, 2, 0.01, 1)
		cfg.StragglerFraction, cfg.Precision = 0.5, prec
		reg := obs.NewRegistry()
		cfg.Trace = reg
		coord, dev, err := newSimPair(m, fed.Fleet(), cfg, CoordinatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dev.trace = reg
		b := &simBackend{inProcess: inProcess{coord: coord, eval: nanEval}, serve: func(ds []Dispatch) ([]Reply, error) {
			return runDispatches(dev, cfg.Parallelism, nil, ds)
		}}
		if _, err := runToDone(coord, b); err != nil {
			t.Fatal(err)
		}
		counter := func(name string) string {
			m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(reg.Render())
			if m == nil {
				t.Fatalf("%s: no %s in /metrics", prec, name)
			}
			return m[1]
		}
		up, devUp := counter("fedprox_uplink_bytes_total"), counter("fedprox_device_uplink_bytes_total")
		if up != devUp || up == "0" {
			t.Fatalf("%s: device uplink bytes %s, coordinator %s", prec, devUp, up)
		}
	}
}

// TestDeviceBudgetAsyncVTimeDeterministic: the variable-work axis runs on
// the virtual-time asynchronous path too, deterministically, charging the
// compute leg for the realized epochs (less virtual time than full work).
func TestDeviceBudgetAsyncVTimeDeterministic(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	n := fed.NumDevices()

	cfg := vtimeAsyncConfig(AsyncTotal, n)
	cfg.StragglerFraction = 0
	cfg.DeviceBudget = fixedBudget(1)

	a, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !historiesEqual(a, b) {
		t.Fatal("budgeted vtime async run is not reproducible under the same seed")
	}
	full := cfg
	full.DeviceBudget = nil
	f, err := Run(mdl, fed, full)
	if err != nil {
		t.Fatal(err)
	}
	if !(a.VirtualDuration() < f.VirtualDuration()) {
		t.Fatalf("budgeted run took %.3f virtual-s, full work %.3f — truncation must shorten the compute leg",
			a.VirtualDuration(), f.VirtualDuration())
	}
	if !a.TracksWork() {
		t.Fatal("async budgeted run must track work columns")
	}
}

// TestDeviceChecksNBeforeDecode: an Update's N is the peer's word, and on a
// first contact a topk decode sizes its result by it (the dense and
// quantized payloads bound it themselves). Both decode sites refuse an N
// that is not the model's before decoding, not after a terabyte-sized
// GetVec.
func TestDeviceChecksNBeforeDecode(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.1))
	mdl := linear.ForDataset(fed)
	dev := NewDevice(mdl, fed.Shards, DeviceOptions{})
	spec := comm.Spec{Name: "topk"}.WithDefaults()
	if err := dev.InstallLinks(spec, spec); err != nil {
		t.Fatal(err)
	}
	hostile := func() *comm.Update {
		return &comm.Update{Codec: "topk", N: 1 << 40, Indices: []int32{0}, Values: []float64{1}}
	}
	if _, err := dev.HandleDispatch(Dispatch{Device: fed.Shards[0].ID, Epochs: 1, LearningRate: 0.01, BatchSize: 10, Update: hostile()}); err == nil {
		t.Error("HandleDispatch decoded an update declaring 2^40 parameters")
	}
	if _, err := dev.HandleEval(EvalRequest{Seq: 1, Update: hostile()}); err == nil {
		t.Error("HandleEval decoded an update declaring 2^40 parameters")
	}
}

// resizedSolver is SGD whose result is off the model's length by words:
// a faulty Config.Solver.
type resizedSolver struct {
	solver.SGDSolver
	words int
}

func (s resizedSolver) Solve(m model.Model, train []data.Example, w0 []float64, cfg solver.Config, epochs int, rng *frand.Source) []float64 {
	w := s.SGDSolver.Solve(m, train, w0, cfg, epochs, rng)
	if s.words < 0 {
		return w[:len(w)+s.words]
	}
	return append(w, make([]float64, s.words)...)
}

// TestReplyLengthChecked: a raw reply one word short or long fails the run
// with an error naming its device before either fold reads it — not a
// panic in the sync fold, not a silent partial fold of the async delta.
func TestReplyLengthChecked(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := mdl.NumParams()
	configs := []struct {
		name string
		cfg  Config
	}{
		{"sync", FedProx(3, 5, 2, 0.01, 1)},
		{"async-total", vtimeAsyncConfig(AsyncTotal, fed.NumDevices())},
	}
	for _, c := range configs {
		for _, words := range []int{-1, 1} {
			cfg := c.cfg
			cfg.Solver = resizedSolver{words: words}
			_, err := Run(mdl, fed, cfg)
			want := regexp.MustCompile(fmt.Sprintf(`^core: reply from device \d+ has %d params, model has %d$`, n+words, n))
			if err == nil || !want.MatchString(err.Error()) {
				t.Errorf("%s, solver %+d words: error %v, want one matching %s", c.name, words, err, want)
			}
		}
	}
}

// TestDeviceHandleEvalSortedOrder: eval replies list hosted devices in
// ascending ID order regardless of shard registration order, so the wire
// output is deterministic run to run.
func TestDeviceHandleEvalSortedOrder(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.1))
	mdl := linear.ForDataset(fed)
	// Register shards in reverse order.
	rev := append([]*data.Shard(nil), fed.Shards...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	dev := NewDevice(mdl, rev, DeviceOptions{})
	w0 := mdl.InitParams(frand.New(3))
	reply, err := dev.HandleEval(EvalRequest{Seq: 1, Params: w0})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Devices) != fed.NumDevices() {
		t.Fatalf("eval reported %d devices, want %d", len(reply.Devices), fed.NumDevices())
	}
	for i := 1; i < len(reply.Devices); i++ {
		if reply.Devices[i-1].Device >= reply.Devices[i].Device {
			t.Fatalf("eval devices out of order at %d: %d >= %d",
				i, reply.Devices[i-1].Device, reply.Devices[i].Device)
		}
	}
}

// TestDeviceBudgetCheckpointResume: the budget axis composes with
// checkpointing — a resumed codec run continues the work columns and the
// device-side encoder state bit for bit.
func TestDeviceBudgetCheckpointResume(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)

	base := FedProx(6, 5, 8, 0.01, 1)
	base.EvalEvery = 2
	base.DeviceBudget = fixedBudget(3)
	base.Codec = comm.Spec{Name: "delta+qsgd", Bits: 8}

	straight, err := Run(mdl, fed, base)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: stop after the first save, then resume. Saves
	// follow every round, so the first one falls between two evaluations
	// and the resume crosses an evaluation window boundary: the partially
	// accumulated work counters must ride the checkpoint for the next
	// Point's MeanEpochsDone to match.
	ck := &memCheckpointer{failAfterSaves: 1}
	interrupted := base
	interrupted.Checkpointer = ck
	if _, err := Run(mdl, fed, interrupted); err == nil {
		t.Fatal("expected the interrupted run to fail at the injected stop")
	}
	ck.failAfterSaves = 0
	resumed, err := Run(mdl, fed, interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Points) != len(straight.Points) {
		t.Fatalf("resumed run has %d points, want %d", len(resumed.Points), len(straight.Points))
	}
	for i := range straight.Points {
		sp, rp := straight.Points[i], resumed.Points[i]
		if sp.TrainLoss != rp.TrainLoss {
			t.Fatalf("point %d: resumed loss %.17g != straight %.17g", i, rp.TrainLoss, sp.TrainLoss)
		}
		if math.Float64bits(sp.MeanEpochsDone) != math.Float64bits(rp.MeanEpochsDone) {
			t.Fatalf("point %d: resumed MeanEpochsDone %g != straight %g", i, rp.MeanEpochsDone, sp.MeanEpochsDone)
		}
	}
	if straight.Final().Cost != resumed.Final().Cost {
		t.Fatalf("resumed cost %+v != straight %+v", resumed.Final().Cost, straight.Final().Cost)
	}
}

// TestCodecResumeRefusesMissingLinkState: the resumes that must stay
// refused — a codec run provided a snapshot that is missing a part, is
// another run's, or opens a round outside the run. Either endpoint's link
// state gone is named, never silently restarted.
func TestCodecResumeRefusesMissingLinkState(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	cfg := FedProx(4, 5, 2, 0.01, 1)
	cfg.Codec = comm.Spec{Name: "qsgd", Bits: 8}
	ck := &memCheckpointer{failAfterSaves: 1}
	cfg.Checkpointer = ck
	if _, err := Run(mdl, fed, cfg); err == nil {
		t.Fatal("expected the interrupted run to fail at the injected stop")
	}
	ck.failAfterSaves = 0
	for want, strip := range map[string]func(*Snapshot){
		"no codec link state":        func(s *Snapshot) { s.Links = nil },
		"no device link state":       func(s *Snapshot) { s.DeviceLinks = nil },
		"checkpoint has 1 params":    func(s *Snapshot) { s.Params = s.Params[:1] },
		`checkpoint is run "FedAvg"`: func(s *Snapshot) { s.Label = "FedAvg" },
		"seed 8, this is":            func(s *Snapshot) { s.Seed++ },
		"resumes at round -1":        func(s *Snapshot) { s.NextRound = -1 },
		"resumes at round 5":         func(s *Snapshot) { s.NextRound = 5 },
	} {
		saved := *ck.snap
		strip(ck.snap)
		if _, err := Run(mdl, fed, cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want a %q refusal, got %v", want, err)
		}
		*ck.snap = saved
	}
	if _, err := Run(mdl, fed, cfg); err != nil {
		t.Fatalf("the intact snapshot does not resume: %v", err)
	}
}

// memCheckpointer persists in memory and can fail the run after a set
// number of saves (simulating a crash just past a checkpoint).
type memCheckpointer struct {
	snap           *Snapshot
	saves          int
	failAfterSaves int
}

func (m *memCheckpointer) Load() (*Snapshot, error) { return m.snap, nil }

func (m *memCheckpointer) Save(s *Snapshot) error {
	m.snap = s
	m.saves++
	if m.failAfterSaves > 0 && m.saves >= m.failAfterSaves {
		return errInjectedStop
	}
	return nil
}

var errInjectedStop = errInjected{}

type errInjected struct{}

func (errInjected) Error() string { return "injected stop after checkpoint" }
