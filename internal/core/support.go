package core

import (
	"fmt"
	"math/bits"

	"fedprox/internal/tensor"
)

// executor is one way a Coordinator is driven: a coordinator belongs to
// one, plus edge when it is a tier edge's inner coordinator.
type executor uint

const (
	simSync     executor = 1 << iota // RunFleet
	simAsync                         // RunFleet on the virtual clock
	replaySync                       // Replay
	replayAsync                      // Replay
	wireSync                         // a fednet coordinator
	wireAsync                        // a fednet coordinator
	tiered                           // a node of RunTiered's tree
	edge                             // a tier edge (Tier >= 2), in process or on the wire
	replay      = replaySync | replayAsync
	wire        = wireSync | wireAsync
	async       = simAsync | replayAsync | wireAsync
	everywhere  = edge<<1 - 1
)

// executorNames names the executor bits in order, for a refusal.
var executorNames = [...]string{"the synchronous simulator", "the asynchronous simulator",
	"Replay", "Replay", "fednet", "fednet", "RunTiered", "a tier edge"}

// support is every config option some executor refuses, in one place.
// NewCoordinator, which every executor calls, refuses a config that sets
// an option of a row whose refused executors include its own. What every
// executor requires alike is Config.Validate's. README's "What runs
// where" is rendered from this table.
var support = []struct {
	option  string
	set     func(Config) bool
	refused executor
	why     string
}{
	{"Async", func(c Config) bool { return c.Async.Enabled() }, edge, "an edge folds one synchronous round per parent dispatch"},
	{"a nil VTime.Model", func(c Config) bool { return !c.VTime.Enabled() }, simAsync | replay, "replies race, and recorded ones re-enact, on the virtual clock"},
	{"VTime", func(c Config) bool { return c.VTime.Enabled() }, wire, "a real transport has no virtual latencies to cut replies by"},
	{"AdaptiveMu", func(c Config) bool { return c.AdaptiveMu }, everywhere &^ simSync, "the controller observes one coordinator's loss each synchronous round"},
	{"TrackGamma", func(c Config) bool { return c.TrackGamma }, everywhere &^ simSync, "the probe needs each synchronous round's local solves in process"},
	{"TrackDissimilarity", func(c Config) bool { return c.TrackDissimilarity }, wire, "the gradient pass needs every device's data in process"},
	{"Capability", func(c Config) bool { return c.Capability != nil }, async | tiered, "it re-plans a synchronous round by fleet device ID"},
	{"DeviceBudget", func(c Config) bool { return c.DeviceBudget != nil }, tiered, "a leaf edge would draw budgets by edge-local device ID"},
	{"Solver", func(c Config) bool { return c.Solver != nil }, wire, "workers choose their own local solver"},
	{"Privacy", func(c Config) bool { return c.Privacy != nil }, wire, "privacy is worker state (fednet.NewWorkerWithOptions)"},
	{"Privacy at f32", func(c Config) bool { return c.Privacy != nil && c.Precision == tensor.F32 }, everywhere, "the DP hook runs at full width"},
	{"Checkpointer", func(c Config) bool { return c.Checkpointer != nil }, everywhere &^ simSync, "a Snapshot holds one synchronous coordinator's state"},
	{"Checkpointer with VTime", func(c Config) bool { return c.Checkpointer != nil && c.VTime.Enabled() }, simSync, "the virtual clock is not checkpointed"},
	{"Codec", func(c Config) bool { return c.Codec.Enabled() }, replay, "traces do not carry the encoded payloads"},
}

// checkSupport classifies the coordinator opts describe — WireEncoded is
// fednet, a positive Tier RunTiered, replay Replay; an async executor is
// its sync twin's next bit — and returns the first support row's refusal
// of cfg, or nil.
func checkSupport(cfg Config, opts CoordinatorOptions) error {
	x := simSync
	switch {
	case opts.WireEncoded:
		x = wireSync
	case opts.Tier > 0:
		x = tiered
	case opts.replay:
		x = replaySync
	}
	if cfg.Async.Enabled() && x != tiered {
		x <<= 1
	}
	if opts.Tier > 1 {
		x |= edge
	}
	for _, r := range support {
		if hit := r.refused & x; hit != 0 && r.set(cfg) {
			return fmt.Errorf("core: %s cannot run %s: %s", executorNames[bits.TrailingZeros(uint(hit))], r.option, r.why)
		}
	}
	return nil
}
