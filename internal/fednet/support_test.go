package fednet

import (
	"strings"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/obs"
	"fedprox/internal/privacy"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
	"fedprox/internal/tier"
	"fedprox/internal/vtime"
)

// fullBudget grants every device all its requested epochs.
type fullBudget struct{}

func (fullBudget) EpochBudget(_, _, requested int) int { return requested }

// nopCheckpointer saves nothing and never has anything to load.
type nopCheckpointer struct{}

func (nopCheckpointer) Load() (*core.Snapshot, error) { return nil, nil }
func (nopCheckpointer) Save(*core.Snapshot) error     { return nil }

// TestSupportMatrix tries every config option against every entry point
// that runs FedProx and holds each to accept or refuse, as recorded in
// the grid below. An accepted run goes to completion (the constructors
// only build), so an accepted cell that an executor cannot honour
// fails here too; a refusal must name the option it refuses.
func TestSupportMatrix(t *testing.T) {
	fed, mdl := testWorkload()
	n := fed.NumDevices()
	latency := func() vtime.LatencyModel {
		return vtime.MustModel(vtime.UniformCompute{SecondsPerEpoch: 0.1}, vtime.Net{UplinkBps: 1e6, DownlinkBps: 1e6}, 7)
	}
	sync := core.FedProx(2, 4, 1, 0.01, 0)
	sync.EvalEvery = 2
	timed := sync
	timed.VTime = core.VTimeConfig{Model: latency()}
	async := timed
	async.Async = core.AsyncConfig{Mode: core.AsyncTotal}
	wireAsync := sync
	wireAsync.Async = async.Async

	var recorded obs.Tape
	rec := timed
	rec.Trace = &recorded
	if _, err := core.Run(mdl, fed, rec); err != nil {
		t.Fatal(err)
	}

	// The grid's columns, in order.
	entries := []struct {
		name string
		base core.Config
		run  func(core.Config) error
	}{
		{"RunFleet sync", sync, func(c core.Config) error { _, err := core.RunFleet(mdl, fed.Fleet(), c); return err }},
		{"RunFleet async", async, func(c core.Config) error { _, err := core.RunFleet(mdl, fed.Fleet(), c); return err }},
		{"RunTiered", sync, func(c core.Config) error {
			_, err := core.RunTiered(mdl, fed.Fleet(), c, tier.Topology{FanOut: 2, Depth: 1})
			return err
		}},
		{"Replay sync", timed, func(c core.Config) error { _, err := core.Replay(mdl, fed.Fleet(), c, recorded); return err }},
		{"Replay async", async, func(c core.Config) error { _, err := core.Replay(mdl, fed.Fleet(), c, recorded); return err }},
		{"NewServer sync", sync, func(c core.Config) error {
			_, err := NewServer(mdl, ServerConfig{Training: c, ExpectDevices: n})
			return err
		}},
		{"NewServer async", wireAsync, func(c core.Config) error {
			_, err := NewServer(mdl, ServerConfig{Training: c, ExpectDevices: n})
			return err
		}},
		{"NewEdge", sync, func(c core.Config) error {
			_, err := NewEdge(mdl, EdgeConfig{Training: c, ExpectDevices: n, FanOut: 2})
			return err
		}},
		// Re-execution is fednet's executor: the tape is a fednet async
		// run of the same config, and where fednet refuses that config the
		// refusal held to the grid is still Reexecute's own.
		{"Reexecute", wireAsync, func(c core.Config) error {
			var tape obs.Tape
			rec := c
			rec.Trace = &tape
			_, _ = launch(t, fed, mdl, rec, 2)
			_, err := core.Reexecute(mdl, fed.Fleet(), c, tape)
			return err
		}},
	}
	dp := &privacy.Mechanism{ClipNorm: 1, NoiseStd: 0.01, Seed: 1}
	// want has one cell per entry: '.' accepts, 'x' refuses, '-' is not
	// tried (the option is the entry's own base or cannot apply to it).
	options := []struct {
		name string // the Config field a refusal must name
		set  func(*core.Config)
		want string
	}{
		{"AdaptiveMu", func(c *core.Config) { c.AdaptiveMu = true }, ".xxxxxxxx"},
		{"TrackGamma", func(c *core.Config) { c.TrackGamma = true }, ".xxxxxxxx"},
		{"TrackDissimilarity", func(c *core.Config) { c.TrackDissimilarity = true }, ".....xxxx"},
		{"Capability", func(c *core.Config) { c.Capability = fullBudget{} }, ".xx.x.x.x"},
		{"DeviceBudget", func(c *core.Config) { c.DeviceBudget = fullBudget{} }, "..x......"},
		{"Checkpointer", func(c *core.Config) { c.Checkpointer = nopCheckpointer{} }, ".xxxxxxxx"},
		{"Checkpointer", func(c *core.Config) { c.Checkpointer, c.VTime = nopCheckpointer{}, timed.VTime }, "x--------"},
		{"Privacy", func(c *core.Config) { c.Privacy = dp }, ".....xxxx"},
		{"Privacy", func(c *core.Config) { c.Privacy, c.Precision = dp, tensor.F32 }, "xxxxxxxxx"},
		{"Solver", func(c *core.Config) { c.Solver = solver.GDSolver{} }, ".....xxxx"},
		{"VTime", func(c *core.Config) { c.VTime = timed.VTime }, ".....xxxx"},
		{"VTime", func(c *core.Config) { c.VTime = core.VTimeConfig{} }, "-x-xx----"},
		{"Codec", func(c *core.Config) { c.Codec = comm.Spec{Name: "qsgd"} }, "...xx...."},
		{"Precision", func(c *core.Config) { c.Precision = tensor.F32 }, "........."},
		{"Async", func(c *core.Config) { c.Async = async.Async }, "--x----x-"},
	}
	for _, o := range options {
		if o.want[8] != o.want[6] {
			t.Errorf("%s: Reexecute's cell %q is not fednet async's %q", o.name, o.want[8], o.want[6])
		}
		for i, e := range entries {
			want := o.want[i]
			if want == '-' {
				continue
			}
			cfg := e.base
			o.set(&cfg)
			var panicked any
			err := func() error {
				defer func() { panicked = recover() }()
				return e.run(cfg)
			}()
			switch {
			case panicked != nil:
				t.Errorf("%s × %s: panicked: %v", e.name, o.name, panicked)
			case want == '.' && err != nil:
				t.Errorf("%s × %s: refused, want accepted: %v", e.name, o.name, err)
			case want == 'x' && err == nil:
				t.Errorf("%s × %s: accepted, want refused", e.name, o.name)
			case want == 'x' && !strings.Contains(err.Error(), o.name):
				t.Errorf("%s × %s: refusal %q does not name the option", e.name, o.name, err)
			}
		}
	}
}
