package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// BenchEntry is one run's machine-readable summary, the unit of the CI
// bench-smoke gate: fedbench -json writes a list of these and -baseline
// compares a fresh list against a committed one, failing on final-loss
// regressions.
type BenchEntry struct {
	Experiment string  `json:"experiment"`
	Section    string  `json:"section"`
	Method     string  `json:"method"`
	Rounds     int     `json:"rounds"`
	FinalLoss  float64 `json:"final_loss"`
	FinalAcc   float64 `json:"final_acc"`
	// Seconds is the measured wall-clock of the run, when the experiment
	// recorded one (ext-async does). Informational: machine-speed
	// dependent, never gated on.
	Seconds float64 `json:"seconds,omitempty"`
	// VirtualSeconds is the run's virtual wall-clock when it executed on
	// the internal/vtime engine (ext-vtime does). Deterministic — the
	// same seed always yields the same value — but additive to the
	// schema: the loss gate ignores it, and baselines written before the
	// field parse unchanged.
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`
	// ReplyLatencyP50/P90/P99 are quantiles of the per-reply virtual
	// latency distribution (History.ReplyLatencyQuantiles over the
	// Arrivals trace) for runs with a virtual clock — the
	// straggler-tail summary behind the deadline/byte-budget policy
	// comparisons. Deterministic per seed, never gated on, and omitted
	// (like VirtualSeconds) for runs without a clock.
	ReplyLatencyP50 float64 `json:"reply_latency_p50,omitempty"`
	ReplyLatencyP90 float64 `json:"reply_latency_p90,omitempty"`
	ReplyLatencyP99 float64 `json:"reply_latency_p99,omitempty"`
}

// BenchEntries flattens the result into gate-comparable entries. Runs
// whose final loss is not finite (diverged) are skipped — they cannot be
// compared and should be caught by the experiment's own notes.
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

// ReadBench parses the BENCH_*.json file at path.
func ReadBench(path string) ([]BenchEntry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []BenchEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		return nil, fmt.Errorf("experiments: parse bench json: %w", err)
	}
	return entries, nil
}

// CompareBench checks current against baseline and returns one message
// per regression: a (experiment, section, method) present in the
// baseline whose final loss now exceeds baseline·(1+tol), or which went
// missing entirely. An empty result means the gate passes. Entries only
// in current (new experiments) are ignored — baselines ratchet forward
// by being regenerated, not by blocking additions.
func CompareBench(current, baseline []BenchEntry, tol float64) []string {
	key := func(e BenchEntry) string {
		return e.Experiment + " | " + e.Section + " | " + e.Method
	}
	cur := make(map[string]BenchEntry, len(current))
	for _, e := range current {
		cur[key(e)] = e
	}
	var regressions []string
	for _, b := range baseline {
		c, ok := cur[key(b)]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from current results", key(b)))
			continue
		}
		budget := b.FinalLoss * (1 + tol)
		if c.FinalLoss > budget+1e-9 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: final loss %.4f exceeds baseline %.4f by %.1f%% (budget %.0f%%)",
				key(b), c.FinalLoss, b.FinalLoss, 100*(c.FinalLoss-b.FinalLoss)/b.FinalLoss, 100*tol))
		}
	}
	return regressions
}
