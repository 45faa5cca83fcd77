package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fedprox/internal/obs"
)

// Point is one evaluated round of a run.
type Point struct {
	// Round is the communication round index (0 = before any update).
	Round int
	// TrainLoss is the global objective f(wᵗ) over all devices.
	TrainLoss float64
	// TestAcc is the network-wide test accuracy.
	TestAcc float64
	// GradVar is E_k‖∇F_k(w) − ∇f(w)‖² (NaN when not tracked).
	GradVar float64
	// B is the B(w) dissimilarity estimate (NaN when not tracked).
	B float64
	// Mu is the proximal coefficient in effect at this round.
	Mu float64
	// MeanGamma is the mean achieved γ-inexactness across selected devices
	// (NaN when not tracked).
	MeanGamma float64
	// Participants is the number of device updates aggregated this round.
	Participants int
	// MeanStaleness and MaxStaleness describe the model-version staleness
	// of the updates folded since the previous evaluated point: a reply
	// computed from model version v and folded at version V has staleness
	// V − v. Synchronous runs have no staleness; both fields are NaN
	// there (and in every pre-async history).
	MeanStaleness float64
	MaxStaleness  float64
	// VirtualSeconds is the virtual wall-clock at this evaluation when
	// the run executes on the internal/vtime engine (Config.VTime):
	// cumulative over rounds in the synchronous protocol, the engine's
	// clock at the recording milestone in the asynchronous ones. NaN
	// when the run has no virtual clock.
	VirtualSeconds float64
	// MeanEpochsDone is the mean local epochs actually run by the
	// updates aggregated since the previous evaluated point — the
	// realized work under a device-side compute budget
	// (Config.DeviceBudget). PartialFraction is the fraction of those
	// updates the device truncated below its dispatched epoch target.
	// Both are NaN when the run has no budget model (and at points with
	// no aggregated updates, e.g. round 0).
	MeanEpochsDone  float64
	PartialFraction float64
	// Cost is the cumulative resource accounting up to this round.
	Cost Cost
}

// Cost tracks the resources a run has consumed, cumulatively. It
// quantifies the paper's systems motivation: dropping stragglers
// (FedAvg) wastes the computation they performed before the deadline,
// while FedProx converts the same device work into progress.
//
// One rule prices every executor at both widths, so the pass-through raw
// codec changes no field but the Wire* counters:
//   - epochs come from the plan: a straggler dropped by policy is never
//     contacted, but its planned, budget-clamped epochs are charged as
//     wasted — the work a deployment would lose;
//   - bytes come from the wire: only contacted devices download, only
//     replies that reach the server upload, and every evaluation
//     broadcast is billed at full width, as comm.NewEvalLink encodes it;
//   - a transfer costs its encoded size (comm.Update.WireBytes), an
//     uncoded one what raw would put on the wire (comm.Spec.WireSize).
type Cost struct {
	// UplinkBytes and DownlinkBytes count model transfers.
	UplinkBytes, DownlinkBytes int64
	// WireUplinkBytes and WireDownlinkBytes are actual serialized bytes
	// measured on the transport, including protocol framing and
	// evaluation traffic. Only the fednet runtime fills these; the
	// simulator's analytic accounting lives in Uplink/DownlinkBytes.
	WireUplinkBytes, WireDownlinkBytes int64
	// EvalBytes is the analytic size of the evaluation broadcasts:
	// the encoded global model, charged once per evaluation (broadcast
	// semantics — the eval link is shared, not per-device).
	EvalBytes int64
	// DeviceEpochs is the total local epochs across all devices, dropped
	// stragglers' planned epochs and discarded work included.
	DeviceEpochs int
	// WastedEpochs is the subset of DeviceEpochs whose results were
	// dropped (straggler updates under DropStragglers).
	WastedEpochs int
}

// Arrival is one transmitted device reply of a virtual-time run: when
// the broadcast was dispatched, when the reply reached (or would have
// reached) the coordinator, and what the coordinator did with it. The
// trace is the raw material for latency-distribution and
// straggler-policy analysis offline. Devices that never transmit — the
// designated stragglers discarded under DropStragglers — do not appear;
// their discarded work is visible in Cost.WastedEpochs instead.
//
// A History holds one Arrival per contact for the life of the run, so
// the record is kept to 24 bytes: the device id is 32-bit, and nothing
// else about the reply is repeated here. Its dispatch seq, its staleness
// and its work (budget, epochs run, bytes) live in the trace's
// obs.KindReply events, which is what Replay prices partial work from.
type Arrival struct {
	// Device is the contacted device index.
	Device int32
	// Drop records why the reply was discarded, or ArrivalFolded.
	Drop DropReason
	// Sent is the virtual time the broadcast left the coordinator.
	Sent float64
	// Arrived is the virtual time the reply reached the coordinator.
	Arrived float64
}

// DropReason classifies the fate of a virtual-time reply.
type DropReason int8

const (
	// ArrivalFolded: the reply was aggregated.
	ArrivalFolded DropReason = iota
	// DropPolicy: a designated or capability straggler discarded under
	// DropStragglers. Such devices never transmit a reply, so this
	// reason marks their trace drop event and never appears in the
	// Arrivals trace.
	DropPolicy
	// DropDeadline: the reply arrived after VTimeConfig.DeadlineSeconds.
	DropDeadline
	// DropBudget: the round/window byte budget (VTimeConfig.RoundBytes)
	// was already spent when the reply arrived.
	DropBudget
	// DropLost: the network lost the reply (LatencyModel.Dropped).
	DropLost
	// DropDrain: the reply arrived after the asynchronous schedule
	// completed its target folds.
	DropDrain
)

// String implements fmt.Stringer.
func (d DropReason) String() string {
	switch d {
	case ArrivalFolded:
		return "folded"
	case DropPolicy:
		return "drop-policy"
	case DropDeadline:
		return "drop-deadline"
	case DropBudget:
		return "drop-budget"
	case DropLost:
		return "drop-lost"
	case DropDrain:
		return "drop-drain"
	default:
		return fmt.Sprintf("DropReason(%d)", int(d))
	}
}

// History is the evaluated trajectory of one run.
type History struct {
	// Label names the method, e.g. "FedProx(mu=1)".
	Label string
	// Points are in increasing round order.
	Points []Point
	// Arrivals is the per-contact trace of a virtual-time run, in arrival
	// order (within each round for the synchronous protocol, as replies
	// land for the asynchronous modes); empty otherwise.
	Arrivals []Arrival
	// FinalParams is the global model the schedule ended on, set when the
	// coordinator emits Done (nil before). It aliases the coordinator's
	// vector, which nothing writes after Done.
	FinalParams []float64
}

// Final returns the last evaluated point. It panics on an empty history.
func (h *History) Final() Point {
	if len(h.Points) == 0 {
		panic("core: empty history")
	}
	return h.Points[len(h.Points)-1]
}

// BestAccuracy returns the maximum test accuracy over the run.
func (h *History) BestAccuracy() float64 {
	best := 0.0
	for _, p := range h.Points {
		if p.TestAcc > best {
			best = p.TestAcc
		}
	}
	return best
}

// Diverged reports whether the loss series meets the paper's divergence
// criterion: the loss rises by more than rise over a window of win
// evaluated points (the paper uses f_t − f_{t−10} > 1).
func (h *History) Diverged(rise float64, win int) bool {
	for i := win; i < len(h.Points); i++ {
		if h.Points[i].TrainLoss-h.Points[i-win].TrainLoss > rise {
			return true
		}
	}
	return false
}

// SettledAccuracy returns the accuracy the paper's Figure 7 accounting
// assigns to a run: the accuracy at the first point where the run has
// converged (|Δloss| < tol), or at the point just before it diverges
// (loss rise > rise over win evaluations), or at the final round —
// whichever comes first.
func (h *History) SettledAccuracy(tol, rise float64, win int) float64 {
	for i := 1; i < len(h.Points); i++ {
		if math.Abs(h.Points[i].TrainLoss-h.Points[i-1].TrainLoss) < tol {
			return h.Points[i].TestAcc
		}
		if i >= win && h.Points[i].TrainLoss-h.Points[i-win].TrainLoss > rise {
			return h.Points[i-win].TestAcc
		}
	}
	return h.Final().TestAcc
}

// TracksStaleness reports whether any evaluated point carries update
// staleness — true only for histories produced by an asynchronous
// aggregation run.
func (h *History) TracksStaleness() bool {
	for _, p := range h.Points {
		if !math.IsNaN(p.MeanStaleness) {
			return true
		}
	}
	return false
}

// TracksWork reports whether any evaluated point carries realized-work
// statistics — true only for runs with a device-side compute budget
// (Config.DeviceBudget).
func (h *History) TracksWork() bool {
	for _, p := range h.Points {
		if !math.IsNaN(p.MeanEpochsDone) {
			return true
		}
	}
	return false
}

// TracksVirtualTime reports whether the run executed on the virtual
// clock (Config.VTime) and its points carry VirtualSeconds.
func (h *History) TracksVirtualTime() bool {
	for _, p := range h.Points {
		if !math.IsNaN(p.VirtualSeconds) {
			return true
		}
	}
	return false
}

// VirtualDuration returns the virtual wall-clock of the full run — the
// final evaluated point's VirtualSeconds — or NaN for runs without a
// virtual clock.
func (h *History) VirtualDuration() float64 {
	if len(h.Points) == 0 {
		return math.NaN()
	}
	return h.Final().VirtualSeconds
}

// ReplyLatencyQuantiles returns the given quantiles (each in [0,1]) of
// the per-reply latencies in the Arrivals trace — Arrived − Sent, the
// network+compute round trip of every transmitted reply, dropped or
// folded. Quantiles interpolate linearly between order statistics. The
// result is all-NaN when the run recorded no arrivals (any run without a
// virtual clock).
func (h *History) ReplyLatencyQuantiles(qs ...float64) []float64 {
	lat := make([]float64, len(h.Arrivals))
	for i, a := range h.Arrivals {
		lat[i] = a.Arrived - a.Sent
	}
	sort.Float64s(lat)
	return obs.Quantiles(lat, qs...)
}

// histColumn is one column of the String table: the header and every
// cell share the column's width, so headers cannot drift from the rows
// when optional columns (staleness, realized work, virtual time) are
// combined.
type histColumn struct {
	head string
	cell func(Point) string
}

// columns returns the table layout for this history's tracked features.
func (h *History) columns() []histColumn {
	na := func(v float64, format func(float64) string) string {
		if math.IsNaN(v) {
			return "-"
		}
		return format(v)
	}
	cols := []histColumn{
		{"round", func(p Point) string { return fmt.Sprintf("%d", p.Round) }},
		{"train-loss", func(p Point) string { return fmt.Sprintf("%.4f", p.TrainLoss) }},
		{"test-acc", func(p Point) string { return fmt.Sprintf("%.4f", p.TestAcc) }},
		{"grad-var", func(p Point) string {
			return na(p.GradVar, func(v float64) string { return fmt.Sprintf("%.4g", v) })
		}},
		{"mu", func(p Point) string { return fmt.Sprintf("%.3g", p.Mu) }},
	}
	if h.TracksStaleness() {
		cols = append(cols,
			histColumn{"mean-stale", func(p Point) string {
				return na(p.MeanStaleness, func(v float64) string { return fmt.Sprintf("%.2f", v) })
			}},
			histColumn{"max-stale", func(p Point) string {
				return na(p.MeanStaleness, func(float64) string { return fmt.Sprintf("%.0f", p.MaxStaleness) })
			}})
	}
	if h.TracksWork() {
		cols = append(cols,
			histColumn{"mean-epochs", func(p Point) string {
				return na(p.MeanEpochsDone, func(v float64) string { return fmt.Sprintf("%.2f", v) })
			}},
			histColumn{"partial", func(p Point) string {
				return na(p.MeanEpochsDone, func(float64) string { return fmt.Sprintf("%.0f%%", 100*p.PartialFraction) })
			}})
	}
	if h.TracksVirtualTime() {
		cols = append(cols, histColumn{"vtime-s", func(p Point) string {
			return na(p.VirtualSeconds, func(v float64) string { return fmt.Sprintf("%.3f", v) })
		}})
	}
	return cols
}

// histColumnWidths are the historical minimum widths by header; columns
// not listed are at least as wide as their header.
var histColumnWidths = map[string]int{
	"round":      6,
	"train-loss": 12,
	"test-acc":   9,
	"grad-var":   12,
	"mu":         8,
	"mean-stale": 10,
	"max-stale":  9,
	"partial":    8,
	"vtime-s":    10,
}

// String renders the history as an aligned table of evaluated rounds.
// Asynchronous histories gain staleness columns, budgeted runs realized
// work, virtual-time runs the clock; every column's header and cells are
// rendered from one spec and one width, so combinations cannot drift out
// of alignment.
func (h *History) String() string {
	cols := h.columns()
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = max(histColumnWidths[c.head], len(c.head))
		for _, p := range h.Points {
			widths[i] = max(widths[i], len(c.cell(p)))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", h.Label)
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%*s", widths[i], c.head)
	}
	b.WriteByte('\n')
	for _, p := range h.Points {
		for i, c := range cols {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%*s", widths[i], c.cell(p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
