package experiments

import (
	"slices"

	"fedprox/internal/obs"
)

// Options scales an experiment between bench-friendly miniatures and
// paper-scale runs. The heterogeneity structure (device counts where
// feasible, label skew, power-law allocation, straggler simulation) is
// identical at every scale; only sample volumes, model widths, and round
// counts change.
type Options struct {
	// Scale multiplies per-device sample volumes (and device counts for
	// the very large networks).
	Scale float64
	// Rounds is the communication-round count for convex workloads.
	Rounds int
	// SeqRounds is the round count for LSTM workloads (the paper also
	// runs these for far fewer rounds, e.g. 20 for Shakespeare).
	SeqRounds int
	// EvalEvery is the evaluation interval in rounds.
	EvalEvery int
	// LocalEpochs is E for the main experiments (paper: 20).
	LocalEpochs int
	// ClientsPerRound is K (paper: 10).
	ClientsPerRound int
	// Hidden, Embed, Layers size the LSTM workloads.
	Hidden, Embed, Layers int
	// MaxSeqLen caps sequence lengths (0 keeps the dataset default).
	MaxSeqLen int
	// Datasets optionally restricts the five-dataset experiments to a
	// subset of {"synthetic", "mnist", "femnist", "shakespeare",
	// "sent140"}; nil runs all five.
	Datasets []string
	// Seed drives every environment draw.
	Seed uint64
	// Codec names a model-update codec (see internal/comm) applied to
	// every run's transfers; empty keeps the uncompressed wire.
	Codec string
	// CodecBits is the qsgd bit width (0 selects the comm default).
	CodecBits int
	// CodecTopK is the topk kept fraction (0 selects the comm default).
	CodecTopK float64
	// DownlinkCodec optionally overrides Codec on the broadcast
	// direction (e.g. "raw" to sparsify only the uplink).
	DownlinkCodec string
	// Precision selects the device hot path's arithmetic width ("f64" or
	// "f32", see core.Config.Precision); empty keeps full width.
	Precision string
	// AsyncAlpha, AsyncStalenessExp, and AsyncBufferK parameterize the
	// asynchronous aggregation runs of ext-async and ext-vtime (zero
	// selects the core.AsyncConfig defaults).
	AsyncAlpha        float64
	AsyncStalenessExp float64
	AsyncBufferK      int
	// VTimeDeadline and VTimeRoundBytes override the straggler-policy
	// knobs of the ext-vtime policy cases (zero derives defaults from
	// the latency model and the round's wire traffic).
	VTimeDeadline   float64
	VTimeRoundBytes int64
	// TierFanOut, when > 1, replaces ext-hier's default fan-out sweep
	// with {1 (flat), TierFanOut}; TierLatency, when > 0, overrides the
	// backbone latency pricing the aggregator legs (the fedbench
	// -tier sim override group).
	TierFanOut  int
	TierLatency float64
	// Trace attaches an event sink (see internal/obs) to every run the
	// experiment launches: each workload/method case streams its
	// coordinator events — round lifecycle, dispatches, replies with
	// disposition, folds, evals — to the same sink. Virtual-time cases
	// stamp virtual seconds; clockless cases emit untimed events. Nil
	// (the default) keeps tracing off.
	Trace obs.Sink
	// runs, set by Together, is the run set Run shares; nil gives each
	// Run a set of its own.
	runs *runSet
}

// Fast returns miniature settings for benchmarks and CI: every experiment
// finishes in seconds while preserving the comparisons' qualitative shape.
func Fast() Options {
	return Options{
		Scale:           0.15,
		Rounds:          30,
		SeqRounds:       6,
		EvalEvery:       5,
		LocalEpochs:     20,
		ClientsPerRound: 10,
		Hidden:          12,
		Embed:           6,
		Layers:          2,
		MaxSeqLen:       10,
		Seed:            7,
	}
}

// Full returns the settings cmd/fedbench uses by default: paper-scale
// synthetic suite, moderately scaled real-data surrogates, and small LSTM
// widths so a full figure regenerates in minutes on a laptop.
func Full() Options {
	return Options{
		Scale:           0.5,
		Rounds:          200,
		SeqRounds:       20,
		EvalEvery:       5,
		LocalEpochs:     20,
		ClientsPerRound: 10,
		Hidden:          32,
		Embed:           8,
		Layers:          2,
		MaxSeqLen:       20,
		Seed:            7,
	}
}

// wantDataset reports whether the named dataset is enabled by o.Datasets.
func (o Options) wantDataset(name string) bool {
	return len(o.Datasets) == 0 || slices.Contains(o.Datasets, name)
}
