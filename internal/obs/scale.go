package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// ScalePoint is one population-scale run measurement — the unit of the
// committed BENCH_scale.json that `fedspeed -scale` regenerates and the
// CI bench-smoke job gates. Where BENCH_speed.json ratchets per-op
// mechanism speed, BENCH_scale.json ratchets whole-run scalability: a
// virtual-time asynchronous run over a lazily materialized fleet of
// Devices devices, measured as dispatch throughput and memory footprint
// per device. A change that silently re-introduces an O(N)-per-dispatch
// walk or an eager per-device allocation moves these numbers by orders
// of magnitude, not percent.
type ScalePoint struct {
	Name    string `json:"name"`
	Devices int    `json:"devices"`
	// Dispatches is the number of training dispatches the run served.
	Dispatches int `json:"dispatches"`
	// DispatchesPerSec is the gated throughput number: dispatches
	// served per wall-clock second, end to end (fleet construction,
	// run, final evaluation).
	DispatchesPerSec float64 `json:"dispatches_per_sec"`
	// BytesPerDevice is the gated footprint number: peak runtime memory
	// divided by the population. Lazy fleets hold O(1) bytes per device
	// (sample counts, liveness, the Fenwick tree) — materializing
	// shards or buffers per device shows up here as a ~100x jump.
	BytesPerDevice float64 `json:"bytes_per_device"`
	// PeakSysBytes is the runtime's peak memory claimed from the OS
	// (runtime.MemStats.Sys after the run), informational.
	PeakSysBytes int64 `json:"peak_sys_bytes"`
	// WallSeconds is the measured wall-clock duration, informational.
	WallSeconds float64 `json:"wall_seconds"`
	// FinalLoss is the run's final evaluated global loss — a
	// determinism tripwire rather than a performance number: the run is
	// seeded, so any change here means the scale path diverged from the
	// reference semantics, not that the model got worse. CompareScale
	// reports a difference beyond finalLossTol.
	FinalLoss float64 `json:"final_loss"`
}

// WriteScale serializes points as indented JSON (the BENCH_scale.json
// format).
func WriteScale(w io.Writer, pts []ScalePoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pts)
}

// ReadScale parses a BENCH_scale.json file.
func ReadScale(r io.Reader) ([]ScalePoint, error) {
	var pts []ScalePoint
	if err := json.NewDecoder(r).Decode(&pts); err != nil {
		return nil, fmt.Errorf("obs: parse scale json: %w", err)
	}
	return pts, nil
}

// finalLossTol is the relative difference in FinalLoss CompareScale
// tolerates: the run is bit-deterministic on one platform, and the slack
// only absorbs a differently fused multiply-add on another.
const finalLossTol = 1e-9

// CompareScale checks current against baseline and returns one message
// per regression: a measured point whose throughput fell below
// baseline·(1−tol), whose per-device footprint rose above
// baseline·(1+tol), or whose final loss differs from the baseline's by
// more than finalLossTol relative (tol does not apply: a seeded run that
// lands elsewhere took a different path). An empty result means the gate
// passes.
//
// Unlike CompareSpeed, baseline points missing from current are NOT
// regressions: the committed file carries every population size the
// full `fedspeed -scale` sweep measures (10^5 and 10^6), while the CI
// smoke job re-measures only the sizes that fit its time budget and
// gates those.
func CompareScale(current, baseline []ScalePoint, tol float64) []string {
	base := make(map[string]ScalePoint, len(baseline))
	for _, p := range baseline {
		base[p.Name] = p
	}
	var regressions []string
	for _, c := range current {
		b, ok := base[c.Name]
		if !ok {
			continue // a new size ratchets in when the baseline is regenerated
		}
		if floor := b.DispatchesPerSec * (1 - tol); c.DispatchesPerSec < floor {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f dispatches/sec below baseline %.0f by %.1f%% (budget %.0f%%)",
				c.Name, c.DispatchesPerSec, b.DispatchesPerSec,
				100*(b.DispatchesPerSec-c.DispatchesPerSec)/b.DispatchesPerSec, 100*tol))
		}
		if budget := b.BytesPerDevice * (1 + tol); c.BytesPerDevice > budget {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f bytes/device exceeds baseline %.0f by %.1f%% (budget %.0f%%)",
				c.Name, c.BytesPerDevice, b.BytesPerDevice,
				100*(c.BytesPerDevice-b.BytesPerDevice)/b.BytesPerDevice, 100*tol))
		}
		// Negated so a NaN loss trips too.
		if !(math.Abs(c.FinalLoss-b.FinalLoss) <= finalLossTol*math.Abs(b.FinalLoss)) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: final loss %v differs from baseline %v: the seeded run diverged",
				c.Name, c.FinalLoss, b.FinalLoss))
		}
	}
	return regressions
}
