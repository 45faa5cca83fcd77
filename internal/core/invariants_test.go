package core

import (
	"testing"
	"testing/quick"

	"fedprox/internal/tensor"
)

// TestAggregateConvexHullProperty: both aggregation schemes produce a
// convex combination of the device models, so every coordinate of the
// result lies within the coordinate-wise [min, max] of the inputs.
func TestAggregateConvexHullProperty(t *testing.T) {
	f := func(raw [3][4]int16, w1, w2, w3 uint8) bool {
		params := make([][]float64, 3)
		for i := range params {
			params[i] = make([]float64, 4)
			for j := range params[i] {
				params[i][j] = float64(raw[i][j]) / 128 // range ~[-256, 256]
			}
		}
		weights := []float64{float64(w1) + 1, float64(w2) + 1, float64(w3) + 1}
		for _, scheme := range []SamplingScheme{UniformWeightedAvg, WeightedSimpleAvg} {
			dst := make([]float64, 4)
			aggregate(dst, params, weights, scheme)
			for j := 0; j < 4; j++ {
				lo, hi := params[0][j], params[0][j]
				for _, p := range params[1:] {
					if p[j] < lo {
						lo = p[j]
					}
					if p[j] > hi {
						hi = p[j]
					}
				}
				const eps = 1e-9
				if dst[j] < lo-eps || dst[j] > hi+eps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateSingleUpdateIsIdentity: with one participant both schemes
// return that participant's model exactly.
func TestAggregateSingleUpdateIsIdentity(t *testing.T) {
	p := []float64{1.5, -2, 0.25}
	for _, scheme := range []SamplingScheme{UniformWeightedAvg, WeightedSimpleAvg} {
		dst := make([]float64, 3)
		aggregate(dst, [][]float64{p}, []float64{7}, scheme)
		for j := range p {
			if dst[j] != p[j] {
				t.Fatalf("%v: single-update aggregate differs at %d", scheme, j)
			}
		}
	}
}

// TestWeightedAggregateBiasesTowardHeavy: the n_k-weighted scheme must
// land closer to the heavier device's model.
func TestWeightedAggregateBiasesTowardHeavy(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{1, 1}
	dst := make([]float64, 2)
	aggregate(dst, [][]float64{a, b}, []float64{1, 9}, UniformWeightedAvg)
	if dst[0] != 0.9 {
		t.Fatalf("weighted aggregate = %v, want 0.9 toward heavy device", dst)
	}
	aggregate(dst, [][]float64{a, b}, []float64{1, 9}, WeightedSimpleAvg)
	if dst[0] != 0.5 {
		t.Fatalf("simple average = %v, want 0.5", dst)
	}
	_ = tensor.Norm2(dst)
}

// TestZeroWeightFoldKeepsModel: a synchronous fold whose weights sum to
// zero leaves the model as it is, as the asynchronous fold does, rather
// than panicking the coordinator. Both rows fold only 0-epoch replies
// under WeightByEpochs: a capability model that grants no epochs (its
// partial stragglers are kept at 0 epochs), and replies that report
// EpochsDone 0 under a device budget, as a wire worker may.
func TestZeroWeightFoldKeepsModel(t *testing.T) {
	m, fed := tinyWorkload()
	base := FedProx(4, 5, 3, 0.01, 1)
	base.FoldWeight = WeightByEpochs
	for _, c := range []struct {
		name string
		run  func(Config) (*History, error)
	}{
		{"capability-grants-no-epochs", func(cfg Config) (*History, error) {
			cfg.Capability = fixedBudget(0)
			return Run(m, fed, cfg)
		}},
		{"replies-report-no-epochs", func(cfg Config) (*History, error) {
			cfg.DeviceBudget = fixedBudget(1)
			coord, err := NewCoordinator(m, cfg, CoordinatorOptions{NumDevices: fed.NumDevices()})
			if err != nil {
				return nil, err
			}
			if _, err := coord.RegisterWorker(NewDevice(m, fed.Shards, DeviceOptions{}).Hosted()); err != nil {
				return nil, err
			}
			b := &simBackend{inProcess: inProcess{
				coord: coord,
				eval:  func(v Evaluate) EvalResult { return simEval(m, fed.Fleet(), v) },
			}}
			b.serve = func(ds []Dispatch) ([]Reply, error) {
				rs := make([]Reply, len(ds))
				for i, d := range ds {
					rs[i] = Reply{Device: d.Device, Params: tensor.Converted[float64](d.View)}
				}
				return rs, nil
			}
			return runToDone(coord, b)
		}},
	} {
		h, err := c.run(base)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, p := range h.Points {
			if p.TrainLoss != h.Points[0].TrainLoss {
				t.Errorf("%s: round %d loss %v, want the initial model's %v", c.name, p.Round, p.TrainLoss, h.Points[0].TrainLoss)
			}
		}
	}
}
