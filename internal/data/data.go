// Package data defines the federated dataset substrate: per-device shards,
// train/test splits, mini-batching, and the summary statistics reported in
// Table 1 of the paper.
//
// A federated dataset is a set of device shards. Each shard holds the
// examples generated or collected by one device, split 80/20 into local
// train and test sets exactly as in the paper's protocol (Appendix C.2).
// Examples carry either a dense feature vector (convex workloads: the
// synthetic suite, MNIST, FEMNIST) or a token sequence (LSTM workloads:
// Shakespeare, Sent140).
package data

import (
	"fmt"
	"math"

	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// Example is a single labeled training example. Exactly one of X and Seq is
// populated, depending on the task family.
type Example struct {
	// X is the dense feature vector for vector-input tasks.
	X []float64
	// Seq is the token-index sequence for sequence-input tasks.
	Seq []int
	// Y is the class label (the next character, for next-char prediction).
	Y int
}

// Shard is one device's local dataset.
type Shard struct {
	// ID is the device index within the federated dataset.
	ID int
	// Train and Test are the device's local 80/20 split.
	Train, Test []Example
}

// NumSamples returns the total number of local examples (train + test).
func (s *Shard) NumSamples() int { return len(s.Train) + len(s.Test) }

// Federated is a complete federated dataset: one shard per device plus the
// task metadata models need to size themselves.
type Federated struct {
	// Name identifies the dataset in experiment output (e.g. "MNIST").
	Name string
	// Shards holds one entry per device.
	Shards []*Shard
	// NumClasses is the size of the label space.
	NumClasses int
	// FeatureDim is the dense input dimension (0 for sequence tasks).
	FeatureDim int
	// VocabSize is the token vocabulary size (0 for dense tasks).
	VocabSize int
	// SeqLen is the fixed input sequence length (0 for dense tasks).
	SeqLen int
}

// NumDevices returns the number of devices in the network.
func (f *Federated) NumDevices() int { return len(f.Shards) }

// TotalSamples returns the number of examples across all devices.
func (f *Federated) TotalSamples() int {
	n := 0
	for _, s := range f.Shards {
		n += s.NumSamples()
	}
	return n
}

// TrainSizes returns n_k (the local training-set size) for every device.
// These are the weights p_k = n_k/n in the global objective (Equation 1).
func (f *Federated) TrainSizes() []int {
	out := make([]int, len(f.Shards))
	for i, s := range f.Shards {
		out[i] = len(s.Train)
	}
	return out
}

// Weights returns the normalized objective weights p_k = n_k/n computed
// over local training sizes.
func (f *Federated) Weights() []float64 {
	sizes := f.TrainSizes()
	total := 0
	for _, n := range sizes {
		total += n
	}
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		out[i] = float64(n) / float64(total)
	}
	return out
}

// Stats summarizes a federated dataset in the shape of the paper's Table 1.
type Stats struct {
	Name        string
	Devices     int
	Samples     int
	MeanPerDev  float64
	StdevPerDev float64
}

// ComputeStats returns the Table 1 row for f.
func (f *Federated) ComputeStats() Stats { return FleetStats(f.Name, f.Fleet()) }

// FleetStats returns the Table 1 row of the dataset named name whose
// devices fl builds, in parallel, each released once it is counted.
func FleetStats(name string, fl Fleet) Stats {
	counts := make([]int, fl.NumDevices())
	tensor.ParallelFor(len(counts), 0, func(k int) {
		s := fl.Shard(k)
		counts[k] = s.NumSamples()
		fl.Release(s)
	})
	return CountStats(name, counts)
}

// CountStats returns the Table 1 row of the dataset named name whose
// device k holds counts[k] samples: a generator's Sizes.Samples give it
// without building a device.
func CountStats(name string, counts []int) Stats {
	total := 0
	for _, c := range counts {
		total += c
	}
	n := len(counts)
	mean := float64(total) / float64(n)
	varSum := 0.0
	for _, c := range counts {
		d := float64(c) - mean
		varSum += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(varSum / float64(n-1))
	}
	return Stats{Name: name, Devices: n, Samples: total, MeanPerDev: mean, StdevPerDev: std}
}

// String renders the stats as a Table 1 row.
func (st Stats) String() string {
	return fmt.Sprintf("%-12s devices=%-5d samples=%-7d mean=%.0f stdev=%.0f",
		st.Name, st.Devices, st.Samples, st.MeanPerDev, st.StdevPerDev)
}

// SplitTrainTest splits examples into train and test sets with the given
// training fraction, after a deterministic shuffle driven by rng. The paper
// uses trainFrac = 0.8 on every device.
func SplitTrainTest(examples []Example, trainFrac float64, rng *frand.Source) (train, test []Example) {
	nTrain := TrainCount(len(examples), trainFrac)
	idx := rng.Perm(len(examples))
	train = make([]Example, 0, nTrain)
	test = make([]Example, 0, len(examples)-nTrain)
	for i, j := range idx {
		if i < nTrain {
			train = append(train, examples[j])
		} else {
			test = append(test, examples[j])
		}
	}
	return train, test
}

// TrainCount is how many of a device's n examples go to its training set
// at the given fraction: round(trainFrac·n), kept to at least one example
// on each side when n > 1 so every device contributes to both the global
// training loss and test accuracy.
func TrainCount(n int, trainFrac float64) int {
	if trainFrac < 0 || trainFrac > 1 {
		panic("data: trainFrac out of [0,1]")
	}
	nTrain := int(math.Round(trainFrac * float64(n)))
	if n > 1 {
		nTrain = min(max(nTrain, 1), n-1)
	}
	return nTrain
}

// Batches partitions indices of a training set into mini-batches of size
// batchSize, in an order determined by rng. The final batch may be smaller.
// The paper uses batchSize = 10 everywhere.
func Batches(n, batchSize int, rng *frand.Source) [][]int {
	if batchSize <= 0 {
		panic("data: non-positive batch size")
	}
	idx := rng.Perm(n)
	var out [][]int
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		out = append(out, idx[start:end])
	}
	return out
}

// ScaleCount returns round(n·f), at least floor: how every generator's
// Scaled shrinks its sample bounds.
func ScaleCount(n int, f float64, floor int) int {
	return max(int(math.Round(float64(n)*f)), floor)
}

// PowerLawSizes allocates per-device sample counts following a power law,
// the allocation scheme shared by every dataset generator in this
// repository ("the number of samples per device follows a power law").
// Sizes are drawn i.i.d. from a discrete Pareto on [min, max] with the
// given exponent.
func PowerLawSizes(rng *frand.Source, devices, min, max int, alpha float64) []int {
	return rng.PowerLawVec(make([]int, devices), min, max, alpha)
}

// LabelSkewAssign assigns classesPerDevice distinct class labels to each of
// devices devices, cycling through the label space so every class is used.
// This reproduces the paper's label-skew partitions: MNIST gives each
// device samples of only 2 digits; FEMNIST gives each device 5 of 10
// classes.
func LabelSkewAssign(rng *frand.Source, devices, numClasses, classesPerDevice int) [][]int {
	if classesPerDevice > numClasses {
		panic("data: classesPerDevice exceeds numClasses")
	}
	out := make([][]int, devices)
	next := 0
	for d := 0; d < devices; d++ {
		classes := make([]int, classesPerDevice)
		for c := range classes {
			classes[c] = next % numClasses
			next++
		}
		// Shuffle within the device so class order carries no signal.
		rng.Shuffle(classes)
		out[d] = classes
	}
	return out
}

// Validate performs structural sanity checks on a federated dataset and
// returns a descriptive error for the first violation found. Generators
// call this before returning.
func (f *Federated) Validate() error {
	if len(f.Shards) == 0 {
		return fmt.Errorf("data: %s has no shards", f.Name)
	}
	dense := f.FeatureDim > 0
	seq := f.VocabSize > 0
	if dense == seq {
		return fmt.Errorf("data: %s must be exactly one of dense or sequence", f.Name)
	}
	for k, s := range f.Shards {
		if s.ID != k {
			return fmt.Errorf("data: %s shard %d has ID %d", f.Name, k, s.ID)
		}
		if len(s.Train) == 0 {
			return fmt.Errorf("data: %s device %d has empty training set", f.Name, s.ID)
		}
		for _, part := range [][]Example{s.Train, s.Test} {
			for _, ex := range part {
				if ex.Y < 0 || ex.Y >= f.NumClasses {
					return fmt.Errorf("data: %s device %d label %d out of range", f.Name, s.ID, ex.Y)
				}
				if dense && len(ex.X) != f.FeatureDim {
					return fmt.Errorf("data: %s device %d feature dim %d != %d", f.Name, s.ID, len(ex.X), f.FeatureDim)
				}
				if seq {
					if len(ex.Seq) != f.SeqLen {
						return fmt.Errorf("data: %s device %d seq len %d != %d", f.Name, s.ID, len(ex.Seq), f.SeqLen)
					}
					for _, t := range ex.Seq {
						if t < 0 || t >= f.VocabSize {
							return fmt.Errorf("data: %s device %d token %d out of range", f.Name, s.ID, t)
						}
					}
				}
			}
		}
	}
	return nil
}
