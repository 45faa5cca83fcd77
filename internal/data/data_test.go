package data

import (
	"math"
	"testing"
	"testing/quick"

	"fedprox/internal/frand"
)

func denseExamples(n, dim, classes int, rng *frand.Source) []Example {
	out := make([]Example, n)
	for i := range out {
		out[i] = Example{X: rng.NormVec(make([]float64, dim), 0, 1), Y: rng.Intn(classes)}
	}
	return out
}

func TestSplitTrainTestPartition(t *testing.T) {
	rng := frand.New(1)
	f := func(a uint8) bool {
		n := int(a%100) + 2
		ex := denseExamples(n, 3, 2, rng)
		train, test := SplitTrainTest(ex, 0.8, rng.SplitIndex(int(a)))
		if len(train)+len(test) != n {
			return false
		}
		// Both sides non-empty when n > 1.
		return len(train) > 0 && len(test) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitTrainTestFraction(t *testing.T) {
	rng := frand.New(2)
	ex := denseExamples(100, 2, 2, rng)
	train, test := SplitTrainTest(ex, 0.8, rng)
	if len(train) != 80 || len(test) != 20 {
		t.Fatalf("split = %d/%d, want 80/20", len(train), len(test))
	}
}

func TestSplitTrainTestDeterministic(t *testing.T) {
	rng := frand.New(3)
	ex := denseExamples(50, 2, 2, rng)
	t1, _ := SplitTrainTest(ex, 0.8, frand.New(9))
	t2, _ := SplitTrainTest(ex, 0.8, frand.New(9))
	for i := range t1 {
		if t1[i].Y != t2[i].Y || t1[i].X[0] != t2[i].X[0] {
			t.Fatal("split not deterministic under equal seeds")
		}
	}
}

func TestSplitTrainTestPanicsOnBadFrac(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad fraction did not panic")
		}
	}()
	SplitTrainTest(nil, 1.5, frand.New(1))
}

func TestBatchesCoverEveryIndexOnce(t *testing.T) {
	rng := frand.New(5)
	f := func(a, b uint8) bool {
		n := int(a%200) + 1
		bs := int(b%16) + 1
		seen := make([]int, n)
		for _, batch := range Batches(n, bs, rng) {
			if len(batch) == 0 || len(batch) > bs {
				return false
			}
			for _, i := range batch {
				seen[i]++
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchesLastShort(t *testing.T) {
	rng := frand.New(7)
	bs := Batches(25, 10, rng)
	if len(bs) != 3 || len(bs[2]) != 5 {
		t.Fatalf("Batches(25,10): %d batches, last %d", len(bs), len(bs[len(bs)-1]))
	}
}

func TestBatchesPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Batches(1, 0) did not panic")
		}
	}()
	Batches(1, 0, frand.New(1))
}

func TestPowerLawSizesBounds(t *testing.T) {
	rng := frand.New(9)
	sizes := PowerLawSizes(rng, 500, 10, 100, 1.5)
	if len(sizes) != 500 {
		t.Fatalf("len = %d", len(sizes))
	}
	for _, s := range sizes {
		if s < 10 || s > 100 {
			t.Fatalf("size %d out of [10,100]", s)
		}
	}
}

func TestLabelSkewAssignCoversAllClasses(t *testing.T) {
	rng := frand.New(11)
	assign := LabelSkewAssign(rng, 100, 10, 2)
	seen := make([]bool, 10)
	for d, classes := range assign {
		if len(classes) != 2 {
			t.Fatalf("device %d has %d classes", d, len(classes))
		}
		for _, c := range classes {
			if c < 0 || c >= 10 {
				t.Fatalf("class %d out of range", c)
			}
			seen[c] = true
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("class %d never assigned", c)
		}
	}
}

func TestLabelSkewAssignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("classesPerDevice > numClasses did not panic")
		}
	}()
	LabelSkewAssign(frand.New(1), 10, 3, 5)
}

func buildFed(devices, perDev int) *Federated {
	rng := frand.New(13)
	fed := &Federated{Name: "toy", NumClasses: 3, FeatureDim: 4}
	for d := 0; d < devices; d++ {
		ex := denseExamples(perDev, 4, 3, rng)
		train, test := SplitTrainTest(ex, 0.8, rng.SplitIndex(d))
		fed.Shards = append(fed.Shards, &Shard{ID: d, Train: train, Test: test})
	}
	return fed
}

func TestFederatedAccounting(t *testing.T) {
	fed := buildFed(5, 20)
	if fed.NumDevices() != 5 {
		t.Fatalf("NumDevices = %d", fed.NumDevices())
	}
	if fed.TotalSamples() != 100 {
		t.Fatalf("TotalSamples = %d", fed.TotalSamples())
	}
	sizes := fed.TrainSizes()
	total := 0
	for _, n := range sizes {
		total += n
	}
	ws := fed.Weights()
	sum := 0.0
	for i, w := range ws {
		if math.Abs(w-float64(sizes[i])/float64(total)) > 1e-12 {
			t.Fatalf("weight %d = %g", i, w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %g", sum)
	}
}

func TestComputeStats(t *testing.T) {
	fed := buildFed(4, 25)
	st := fed.ComputeStats()
	if st.Devices != 4 || st.Samples != 100 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MeanPerDev != 25 || st.StdevPerDev != 0 {
		t.Fatalf("uniform shards: mean=%g std=%g", st.MeanPerDev, st.StdevPerDev)
	}
	if st.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	good := buildFed(2, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := []func(*Federated){
		func(f *Federated) { f.Shards = nil },
		func(f *Federated) { f.FeatureDim = 0 },                             // neither dense nor seq
		func(f *Federated) { f.VocabSize = 5 },                              // both dense and seq
		func(f *Federated) { f.Shards[0].Train = nil },                      // empty train
		func(f *Federated) { f.Shards[0].Train[0].Y = 99 },                  // label range
		func(f *Federated) { f.Shards[0].Train[0].X = []float64{1} },        // dim
		func(f *Federated) { f.Shards[1].Test[0].Y = -1 },                   // test label
		func(f *Federated) { f.Shards[1].Test[0].X = make([]float64, 400) }, // test dim
		func(f *Federated) { f.Shards[1].ID = 0 },                           // ID not its index
	}
	for i, mutate := range cases {
		f := buildFed(2, 10)
		mutate(f)
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: corrupted dataset passed validation", i)
		}
	}
}

// TestEagerReleaseRefusesForeignShard: the eager fleet takes back its
// own shards and refuses another dataset's, as a lazy fleet refuses a
// shard it did not hand out.
func TestEagerReleaseRefusesForeignShard(t *testing.T) {
	fl := buildFed(3, 10).Fleet()
	for k := range fl.NumDevices() {
		fl.Release(fl.Shard(k))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release of another dataset's shard was accepted")
		}
	}()
	fl.Release(buildFed(3, 10).Shards[1])
}

func TestValidateSequenceChecks(t *testing.T) {
	fed := &Federated{
		Name: "seq", NumClasses: 4, VocabSize: 6, SeqLen: 3,
		Shards: []*Shard{{Train: []Example{{Seq: []int{0, 1, 2}, Y: 1}}}},
	}
	if err := fed.Validate(); err != nil {
		t.Fatalf("valid sequence dataset rejected: %v", err)
	}
	fed.Shards[0].Train[0].Seq = []int{0, 1} // wrong length
	if err := fed.Validate(); err == nil {
		t.Fatal("wrong sequence length passed")
	}
	fed.Shards[0].Train[0].Seq = []int{0, 1, 9} // token out of range
	if err := fed.Validate(); err == nil {
		t.Fatal("out-of-range token passed")
	}
}

func TestShardNumSamples(t *testing.T) {
	s := &Shard{Train: make([]Example, 3), Test: make([]Example, 2)}
	if s.NumSamples() != 5 {
		t.Fatalf("NumSamples = %d", s.NumSamples())
	}
}
