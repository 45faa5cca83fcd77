package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// BenchPoint is one hot-path micro-benchmark measurement — the unit of
// the committed BENCH_speed.json that cmd/fedspeed regenerates and the
// CI bench-smoke job gates. Where BENCH_baseline.json ratchets model
// quality (final loss), BENCH_speed.json ratchets mechanism speed:
// ns/op is the gated number, allocs/op and bytes/op are tracked so an
// allocation regression is visible even when wall time absorbs it.
type BenchPoint struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Iterations records the measured b.N, informational only.
	Iterations int `json:"iterations,omitempty"`
}

// WriteSpeed serializes points as indented JSON (the BENCH_speed.json
// format).
func WriteSpeed(w io.Writer, pts []BenchPoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pts)
}

// ReadSpeed parses a BENCH_speed.json file.
func ReadSpeed(r io.Reader) ([]BenchPoint, error) {
	var pts []BenchPoint
	if err := json.NewDecoder(r).Decode(&pts); err != nil {
		return nil, fmt.Errorf("obs: parse speed json: %w", err)
	}
	return pts, nil
}

// CompareSpeed checks current against baseline and returns one message
// per regression: a benchmark present in the baseline whose ns/op now
// exceeds baseline·(1+tol), whose allocs/op rose above the committed
// floor (allocations are deterministic counts, so they get no
// tolerance), or which went missing entirely. An empty result means the
// gate passes. Benchmarks only in current are ignored — the baseline
// ratchets forward by being regenerated with `fedspeed -out`, not by
// blocking additions. Improvements are never flagged; regenerate the
// baseline to bank them.
func CompareSpeed(current, baseline []BenchPoint, tol float64) []string {
	cur := make(map[string]BenchPoint, len(current))
	for _, p := range current {
		cur[p.Name] = p
	}
	var regressions []string
	for _, b := range baseline {
		c, ok := cur[b.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from current results", b.Name))
			continue
		}
		budget := b.NsPerOp * (1 + tol)
		if c.NsPerOp > budget {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f ns/op by %.1f%% (budget %.0f%%)",
				b.Name, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp-b.NsPerOp)/b.NsPerOp, 100*tol))
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs/op exceeds committed floor %d",
				b.Name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return regressions
}
