package core

import "fmt"

// AggregationMode selects how the coordinator folds device updates into
// the global model. SyncRounds is the paper's lock-step protocol, where
// a round barrier makes every round as slow as its slowest contacted
// worker. The asynchronous modes run in two places: the fednet runtime
// executes them against the real clock (wall-clock heterogeneity,
// arrival-order nondeterminism), and the simulator executes them against
// the internal/vtime virtual clock (Config.VTime), where replies arrive
// in seeded latency order and the trajectory is bit-reproducible.
type AggregationMode int

const (
	// SyncRounds is the paper's protocol: select K devices, wait for
	// every contacted reply, aggregate once per round.
	SyncRounds AggregationMode = iota
	// AsyncTotal folds every reply into the global model the moment it
	// arrives: the device's model delta (its local progress relative to
	// the broadcast it trained from) is applied damped by staleness,
	// w ← w + alpha_k·Δ_k with alpha_k = Alpha/(1+s)^StalenessExponent
	// and s = model versions elapsed since the device's snapshot. No
	// round barrier exists; stragglers delay only their own
	// contributions (cf. Xie et al., "Asynchronous Federated
	// Optimization", in delta form).
	AsyncTotal
	// Buffered is the FedBuff-style middle ground (Nguyen et al.): replies
	// accumulate in a buffer and the model advances one version per
	// BufferK replies, each damped by its own staleness at flush time.
	Buffered
)

// String implements fmt.Stringer.
func (m AggregationMode) String() string {
	switch m {
	case SyncRounds:
		return "sync"
	case AsyncTotal:
		return "async"
	case Buffered:
		return "buffered"
	default:
		return fmt.Sprintf("AggregationMode(%d)", int(m))
	}
}

// Default async knob values filled in by AsyncConfig.WithDefaults.
const (
	// defaultAsyncAlpha is the base mixing rate for a fresh (staleness 0)
	// reply: its full local delta (the synchronous aggregation weight).
	defaultAsyncAlpha = 1.0
	// defaultStalenessExponent is the polynomial damping power p in
	// alpha_k = Alpha/(1+s)^p.
	defaultStalenessExponent = 0.5
)

// AsyncConfig parameterizes the asynchronous aggregation modes of the
// fednet coordinator. The zero value selects SyncRounds and changes
// nothing.
type AsyncConfig struct {
	// Mode selects the aggregation discipline.
	Mode AggregationMode
	// Alpha is the base mixing rate in (0, 1]: a staleness-0 reply
	// applies Alpha times the device's local model delta. At Alpha = 1 a
	// Buffered flush of fresh replies reproduces the synchronous round
	// update exactly. Zero selects defaultAsyncAlpha, 1.
	Alpha float64
	// StalenessExponent is the damping power p >= 0 in
	// alpha_k = Alpha/(1+s)^p; larger p discounts stale replies harder.
	// Zero selects defaultStalenessExponent, 0.5 (set it negative to
	// request exactly 0, i.e. no damping).
	StalenessExponent float64
	// BufferK is the replies-per-flush buffer size of the Buffered mode.
	// Zero selects ClientsPerRound.
	BufferK int
	// MaxInFlight bounds concurrently outstanding TrainRequests across
	// all devices. Zero selects ClientsPerRound — the async analogue of
	// "K devices working at any time", which keeps device utilization
	// comparable to the sync protocol.
	MaxInFlight int
}

// Enabled reports whether an asynchronous mode is selected.
func (a AsyncConfig) Enabled() bool { return a.Mode != SyncRounds }

// WithDefaults returns a with zero-valued knobs replaced by the package
// defaults, resolving BufferK and MaxInFlight against clientsPerRound.
func (a AsyncConfig) WithDefaults(clientsPerRound int) AsyncConfig {
	if a.Alpha == 0 {
		a.Alpha = defaultAsyncAlpha
	}
	if a.StalenessExponent == 0 {
		a.StalenessExponent = defaultStalenessExponent
	} else if a.StalenessExponent < 0 {
		a.StalenessExponent = 0
	}
	if a.BufferK <= 0 {
		a.BufferK = clientsPerRound
	}
	if a.MaxInFlight <= 0 {
		a.MaxInFlight = clientsPerRound
	}
	return a
}

// Validate reports the first configuration error, or nil. The zero
// (sync) config is valid.
func (a AsyncConfig) Validate() error {
	switch a.Mode {
	case SyncRounds, AsyncTotal, Buffered:
	default:
		return fmt.Errorf("core: unknown aggregation mode %d", int(a.Mode))
	}
	if !a.Enabled() {
		return nil
	}
	if !(a.Alpha >= 0 && a.Alpha <= 1) {
		return fmt.Errorf("core: async Alpha must be in (0,1] (0 selects the default), got %g", a.Alpha)
	}
	if !finite(a.StalenessExponent) {
		return fmt.Errorf("core: async StalenessExponent must be finite, got %g", a.StalenessExponent)
	}
	if a.BufferK < 0 {
		return fmt.Errorf("core: async BufferK must be non-negative, got %d", a.BufferK)
	}
	if a.MaxInFlight < 0 {
		return fmt.Errorf("core: async MaxInFlight must be non-negative, got %d", a.MaxInFlight)
	}
	return nil
}
