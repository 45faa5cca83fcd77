package core

import (
	"math"
	"strings"
	"testing"

	"fedprox/internal/comm"
)

// TestConfigValidateRejections is the table-driven sweep of the configs
// RunFleet's coordinator refuses — Config.Validate's illegal values and
// the support table's refusals for the simulator — plus the combinations
// that must stay accepted (notably Codec+Checkpointer, legal since link
// state became checkpointable). Which other executor refuses which
// option is TestSupportMatrix's (internal/fednet).
func TestConfigValidateRejections(t *testing.T) {
	valid := FedProx(4, 5, 2, 0.01, 1)
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring of the expected error; "" means valid
	}{
		{"baseline is valid", func(c *Config) {}, ""},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }, "Rounds"},
		{"zero clients", func(c *Config) { c.ClientsPerRound = 0 }, "ClientsPerRound"},
		{"zero epochs", func(c *Config) { c.LocalEpochs = 0 }, "LocalEpochs"},
		{"zero learning rate", func(c *Config) { c.LearningRate = 0 }, "LearningRate"},
		{"zero batch size", func(c *Config) { c.BatchSize = 0 }, "BatchSize"},
		{"negative mu", func(c *Config) { c.Mu = -1 }, "Mu"},
		{"straggler fraction above 1", func(c *Config) { c.StragglerFraction = 1.5 }, "StragglerFraction"},
		{"NaN mu", func(c *Config) { c.Mu = math.NaN() }, "Mu"},
		{"infinite mu", func(c *Config) { c.Mu = math.Inf(1) }, "Mu"},
		{"NaN learning rate", func(c *Config) { c.LearningRate = math.NaN() }, "LearningRate"},
		{"NaN straggler fraction", func(c *Config) { c.StragglerFraction = math.NaN() }, "StragglerFraction"},
		{"unknown sampling scheme", func(c *Config) { c.Sampling = SamplingScheme(7) }, "Sampling"},
		{"unknown straggler policy", func(c *Config) { c.Straggler = StragglerPolicy(5) }, "Straggler"},

		{"unknown aggregation mode", func(c *Config) { c.Async.Mode = AggregationMode(99) }, "aggregation mode"},
		{"async alpha above 1", func(c *Config) {
			c.Async = AsyncConfig{Mode: AsyncTotal, Alpha: 1.5}
		}, "Alpha"},
		{"async with capability model", func(c *Config) {
			c.Async = AsyncConfig{Mode: AsyncTotal}
			c.VTime = VTimeConfig{Model: fakeLatency{}}
			c.Capability = fullBudget{}
		}, "Capability"},
		{"async with adaptive mu", func(c *Config) {
			c.Async = AsyncConfig{Mode: Buffered}
			c.VTime = VTimeConfig{Model: fakeLatency{}}
			c.AdaptiveMu = true
		}, "AdaptiveMu"},
		{"async with gamma tracking", func(c *Config) {
			c.Async = AsyncConfig{Mode: AsyncTotal}
			c.VTime = VTimeConfig{Model: fakeLatency{}}
			c.TrackGamma = true
		}, "TrackGamma"},
		{"NaN async alpha", func(c *Config) {
			c.Async = AsyncConfig{Mode: AsyncTotal, Alpha: math.NaN()}
		}, "Alpha"},
		{"infinite staleness exponent", func(c *Config) {
			c.Async = AsyncConfig{Mode: Buffered, StalenessExponent: math.Inf(1)}
		}, "StalenessExponent"},

		{"vtime with checkpointer", func(c *Config) {
			c.VTime = VTimeConfig{Model: fakeLatency{}}
			c.Checkpointer = &nopCheckpointer{}
		}, "Checkpointer with VTime"},
		{"negative deadline", func(c *Config) {
			c.VTime = VTimeConfig{Model: fakeLatency{}, DeadlineSeconds: -1}
		}, "DeadlineSeconds"},
		{"NaN deadline", func(c *Config) {
			c.VTime = VTimeConfig{Model: fakeLatency{}, DeadlineSeconds: math.NaN()}
		}, "DeadlineSeconds"},
		{"negative byte budget", func(c *Config) {
			c.VTime = VTimeConfig{Model: fakeLatency{}, RoundBytes: -10}
		}, "RoundBytes"},
		{"vtime policy without model", func(c *Config) {
			c.VTime = VTimeConfig{RoundBytes: 100}
		}, "VTime.Model"},

		{"downlink codec without codec", func(c *Config) {
			c.DownlinkCodec = comm.Spec{Name: "raw"}
		}, "DownlinkCodec requires Codec"},
		{"unknown codec", func(c *Config) {
			c.Codec = comm.Spec{Name: "gzip"}
		}, "unknown codec"},
		{"bad qsgd width", func(c *Config) {
			c.Codec = comm.Spec{Name: "qsgd", Bits: 40}
		}, "bit width"},
		{"codec with checkpointer is now valid", func(c *Config) {
			c.Codec = comm.Spec{Name: "qsgd"}
			c.Checkpointer = &nopCheckpointer{}
		}, ""},
		{"checkpointer alone is valid", func(c *Config) {
			c.Checkpointer = &nopCheckpointer{}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				err = checkSupport(cfg, CoordinatorOptions{})
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpectedly rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted; want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// fullBudget is a trivial CapabilityModel for rejection tests.
type fullBudget struct{}

func (fullBudget) EpochBudget(_, _, requested int) int { return requested }

// fakeLatency is the minimal LatencyModel for Validate tests (never
// executed).
type fakeLatency struct{}

func (fakeLatency) DownlinkSeconds(int, int, int64) float64 { return 0 }
func (fakeLatency) UplinkSeconds(int, int, int64) float64   { return 0 }
func (fakeLatency) ComputeSeconds(int, int, int) float64    { return 0 }
func (fakeLatency) Dropped(int, int) bool                   { return false }
