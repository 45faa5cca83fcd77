package experiments

import (
	"encoding/json"
	"math"
	"os"
)

// BenchEntry is one run's machine-readable summary: fedbench -json and
// fedtrace replay -json write a list of these, and TestBaseline holds the
// committed BENCH_baseline.json to a fresh list field for field.
type BenchEntry struct {
	Experiment string  `json:"experiment"`
	Section    string  `json:"section"`
	Method     string  `json:"method"`
	Rounds     int     `json:"rounds"`
	FinalLoss  float64 `json:"final_loss"`
	FinalAcc   float64 `json:"final_acc"`
	// Seconds is the measured wall-clock of the run, when the experiment
	// recorded one (ext-async does). Informational: machine-speed
	// dependent, never compared.
	Seconds float64 `json:"seconds,omitempty"`
	// VirtualSeconds is the run's virtual wall-clock when it executed on
	// the internal/vtime engine (ext-vtime does). Deterministic — the
	// same seed always yields the same value — and omitted for runs
	// without a clock.
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`
	// ReplyLatencyP50/P90/P99 are quantiles of the per-reply virtual
	// latency distribution (History.ReplyLatencyQuantiles over the
	// Arrivals trace) for runs with a virtual clock — the
	// straggler-tail summary behind the deadline/byte-budget policy
	// comparisons. Deterministic per seed, and omitted (like
	// VirtualSeconds) for runs without a clock.
	ReplyLatencyP50 float64 `json:"reply_latency_p50,omitempty"`
	ReplyLatencyP90 float64 `json:"reply_latency_p90,omitempty"`
	ReplyLatencyP99 float64 `json:"reply_latency_p99,omitempty"`
}

// BenchEntries flattens the result into one entry per run. Runs whose
// final loss is not finite (diverged) are skipped: a NaN equals nothing,
// so such an entry could never match a committed one.
func (r *Result) BenchEntries() []BenchEntry {
	var out []BenchEntry
	for _, sec := range r.Sections {
		for i, h := range sec.Runs {
			if len(h.Points) == 0 {
				continue
			}
			fin := h.Final()
			if math.IsNaN(fin.TrainLoss) || math.IsInf(fin.TrainLoss, 0) {
				continue
			}
			e := BenchEntry{
				Experiment: r.ID,
				Section:    sec.Name,
				Method:     h.Label,
				Rounds:     fin.Round,
				FinalLoss:  fin.TrainLoss,
				FinalAcc:   fin.TestAcc,
			}
			if i < len(sec.Seconds) {
				e.Seconds = sec.Seconds[i]
			}
			if h.TracksVirtualTime() {
				e.VirtualSeconds = fin.VirtualSeconds
			}
			if len(h.Arrivals) > 0 {
				q := h.ReplyLatencyQuantiles(0.5, 0.9, 0.99)
				e.ReplyLatencyP50, e.ReplyLatencyP90, e.ReplyLatencyP99 = q[0], q[1], q[2]
			}
			out = append(out, e)
		}
	}
	return out
}

// WriteBench writes entries to path as indented JSON (the BENCH_*.json
// format).
func WriteBench(path string, entries []BenchEntry) error {
	b, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}
