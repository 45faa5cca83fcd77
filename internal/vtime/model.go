package vtime

import (
	"fmt"
	"math"

	"fedprox/internal/frand"
)

// EvalDevice is the pseudo-device identifying the shared evaluation
// broadcast link in transfer-time queries. Latency models must accept it;
// the built-in Model gives it nominal (factor 1) bandwidth.
const EvalDevice = -1

// LatencyModel yields the virtual durations of one device round-trip's
// legs. Implementations must be pure functions of their arguments (plus
// construction-time seeds): the engine replays them, and reproducibility
// depends on identical draws.
//
// seq is the dispatch sequence number of the transfer (the simulator's
// per-request counter), which decorrelates jitter across a device's
// successive contacts; round plays the same role for compute.
type LatencyModel interface {
	// ComputeSeconds is the local training time for epochs full passes
	// over the device's shard.
	ComputeSeconds(round, device, epochs int) float64
	// UplinkSeconds is the transfer time of bytes encoded bytes from the
	// device to the coordinator.
	UplinkSeconds(seq, device int, bytes int64) float64
	// DownlinkSeconds is the transfer time of bytes encoded bytes from
	// the coordinator to the device (EvalDevice for the shared
	// evaluation broadcast).
	DownlinkSeconds(seq, device int, bytes int64) float64
	// Dropped reports whether the device's reply for dispatch seq is
	// lost in transit (the work is wasted and the coordinator never
	// folds it).
	Dropped(seq, device int) bool
}

// ComputeModel is the compute leg alone, satisfied by
// syshet.(*Fleet).ComputeSeconds — a fleet of tiered, jittered devices —
// and by UniformCompute below.
type ComputeModel interface {
	ComputeSeconds(round, device, epochs int) float64
}

// UniformCompute charges a fixed time per local epoch, optionally scaled
// per device — the minimal compute model, enough to build controlled
// slow-tail scenarios.
type UniformCompute struct {
	// SecondsPerEpoch is the nominal duration of one local epoch.
	SecondsPerEpoch float64
	// Speed, when non-nil, scales the device's rate: an epoch takes
	// SecondsPerEpoch / Speed(device). Return 1 for nominal devices.
	Speed func(device int) float64
}

// ComputeSeconds implements ComputeModel.
func (u UniformCompute) ComputeSeconds(round, device, epochs int) float64 {
	if epochs <= 0 {
		return 0
	}
	s := 1.0
	if u.Speed != nil {
		if f := u.Speed(device); f > 0 {
			s = f
		}
	}
	return float64(epochs) * u.SecondsPerEpoch / s
}

// SlowTail returns a per-device speed factor for a fleet of n devices in
// which the last ceil(frac*n) devices run factor times slower (speed
// 1/factor) — the controlled "10x-slow tail" of straggler experiments.
// Devices outside [0, n) (e.g. EvalDevice) get factor 1.
func SlowTail(n int, frac, factor float64) func(device int) float64 {
	tail := int(math.Ceil(frac * float64(n)))
	if tail > n {
		tail = n
	}
	first := n - tail
	return func(device int) float64 {
		if device >= first && device < n && factor > 0 {
			return 1 / factor
		}
		return 1
	}
}

// Net parameterizes the network legs of the built-in Model.
type Net struct {
	// UplinkBps and DownlinkBps are link bandwidths in bytes per second.
	// Zero or negative means infinitely fast (the leg costs Latency
	// alone) — useful to isolate compute heterogeneity.
	UplinkBps, DownlinkBps float64
	// Latency is the fixed per-transfer overhead in seconds
	// (propagation, framing, handshake), charged on every leg.
	Latency float64
	// JitterStd is the sigma of the log-normal multiplicative jitter on
	// each transfer time (0 disables jitter). The jitter is mean-one.
	JitterStd float64
	// DropProb is the probability a reply is lost in transit, in [0, 1).
	DropProb float64
	// Speed, when non-nil, scales a device's bandwidth in both
	// directions (a 0.1 factor makes transfers 10x slower). EvalDevice
	// and out-of-range devices should be given factor 1 by the caller's
	// function; the built-in SlowTail already does.
	Speed func(device int) float64
}

// Validate reports the first configuration error, or nil.
func (n Net) Validate() error {
	if n.Latency < 0 {
		return fmt.Errorf("vtime: negative Latency %g", n.Latency)
	}
	if n.JitterStd < 0 {
		return fmt.Errorf("vtime: negative JitterStd %g", n.JitterStd)
	}
	if n.DropProb < 0 || n.DropProb >= 1 {
		return fmt.Errorf("vtime: DropProb must be in [0,1), got %g", n.DropProb)
	}
	return nil
}

// Model is the built-in LatencyModel: a pluggable compute model plus a
// Net, with frand-seeded jitter and loss. Every draw is a pure function
// of (seed, leg, seq, device), so two models built with the same
// arguments produce identical latency streams.
type Model struct {
	compute ComputeModel
	net     Net

	upRoot, downRoot, dropRoot *frand.Source
}

// newModel builds a Model, or returns the error of a net that fails
// Validate.
func newModel(compute ComputeModel, net Net, seed uint64) (*Model, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	root := frand.New(seed)
	return &Model{
		compute:  compute,
		net:      net,
		upRoot:   root.Split("uplink"),
		downRoot: root.Split("downlink"),
		dropRoot: root.Split("drop"),
	}, nil
}

// MustModel builds a Model for a static configuration known valid; it
// panics on a net that fails Validate. compute may be nil, making
// computation instantaneous (a pure network model). The seed drives jitter
// and loss only; it is independent of the run seed so the same deployment
// can be replayed under different environment randomness.
func MustModel(compute ComputeModel, net Net, seed uint64) *Model {
	m, err := newModel(compute, net, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// ComputeSeconds implements LatencyModel.
func (m *Model) ComputeSeconds(round, device, epochs int) float64 {
	if m.compute == nil || epochs <= 0 {
		return 0
	}
	return m.compute.ComputeSeconds(round, device, epochs)
}

// transfer is the shared leg implementation: bytes over (possibly
// device-scaled) bandwidth, plus fixed latency, times mean-one log-normal
// jitter drawn from the leg's (seq, device) stream.
func (m *Model) transfer(root *frand.Source, bps float64, seq, device int, bytes int64) float64 {
	t := m.net.Latency
	if bps > 0 && bytes > 0 {
		speed := 1.0
		if m.net.Speed != nil && device != EvalDevice {
			if f := m.net.Speed(device); f > 0 {
				speed = f
			}
		}
		t += float64(bytes) / (bps * speed)
	}
	if m.net.JitterStd > 0 && t > 0 {
		z := root.SplitIndex(seq).SplitIndex(device + 2).Norm()
		t *= math.Exp(m.net.JitterStd*z - m.net.JitterStd*m.net.JitterStd/2)
	}
	return t
}

// UplinkSeconds implements LatencyModel.
func (m *Model) UplinkSeconds(seq, device int, bytes int64) float64 {
	return m.transfer(m.upRoot, m.net.UplinkBps, seq, device, bytes)
}

// DownlinkSeconds implements LatencyModel.
func (m *Model) DownlinkSeconds(seq, device int, bytes int64) float64 {
	return m.transfer(m.downRoot, m.net.DownlinkBps, seq, device, bytes)
}

// Dropped implements LatencyModel.
func (m *Model) Dropped(seq, device int) bool {
	if m.net.DropProb <= 0 {
		return false
	}
	return m.dropRoot.SplitIndex(seq).SplitIndex(device + 2).Bernoulli(m.net.DropProb)
}
