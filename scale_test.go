package fedprox_bench

import (
	"math"
	"runtime"
	"testing"

	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
	"fedprox/internal/vtime"
)

// scaleRun executes one population-scale virtual-time run and returns
// its final training loss and the memory the process holds afterwards
// (runtime.MemStats.Sys): an asynchronous, staleness-damped schedule
// over a lazily synthesized Synthetic(1,1) fleet with a 10x-slow 10%
// tail, 2000 dispatches at 128 in flight and one final fleet
// evaluation. Every device-indexed structure in the run is O(1) per
// device but the fleet's label memo, one byte per example, and a shard
// lives only while a dispatch or the evaluation reads it: its buffer
// then goes back to the fleet, which holds no more buffers than shards
// were live at once. That is what the callers' memory
// bounds pin. The run is fully
// seeded, so the loss is compared by bits. These tests live in the root
// package because its test binary runs nothing else before them: Sys
// never shrinks, and beside a memory-hungry neighbour the bound would
// measure the neighbour.
func scaleRun(tb testing.TB, devices int) (finalLoss float64, sys uint64) {
	sc := synthetic.Config{
		Alpha: 1, Beta: 1,
		Devices:    devices,
		Dim:        10,
		Classes:    5,
		MinSamples: 10,
		MaxSamples: 20,
		PowerAlpha: 1.55,
		TrainFrac:  0.8,
		Seed:       42,
	}
	const rounds, clients = 20, 100
	cfg := core.FedAvg(rounds, clients, 1, 0.01)
	cfg.Mu = 0.1
	cfg.EvalEvery = rounds // evaluate the fleet once, at the end
	cfg.Async = core.AsyncConfig{Mode: core.AsyncTotal, MaxInFlight: 128}
	cfg.VTime = core.VTimeConfig{Model: vtime.MustModel(
		vtime.UniformCompute{SecondsPerEpoch: 0.05, Speed: vtime.SlowTail(devices, 0.1, 10)},
		vtime.Net{UplinkBps: 1e6, DownlinkBps: 4e6, Latency: 0.02, JitterStd: 0.1},
		cfg.Seed+101,
	)}
	h, err := core.RunFleet(linear.New(sc.Dim, sc.Classes), synthetic.NewFleet(sc), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(h.Arrivals) != rounds*clients {
		tb.Fatalf("%d arrivals, want %d", len(h.Arrivals), rounds*clients)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return h.Final().TrainLoss, ms.Sys
}

func checkScale(tb testing.TB, devices int, wantLoss float64, sysBound uint64) uint64 {
	loss, sys := scaleRun(tb, devices)
	tb.Logf("%d devices: final loss %v, Sys %d B", devices, loss, sys)
	if math.Float64bits(loss) != math.Float64bits(wantLoss) {
		tb.Errorf("%d devices: final loss %v, the seeded run gives %v", devices, loss, wantLoss)
	}
	if sys > sysBound {
		tb.Errorf("%d devices: process holds %d B (%.0f per device), bound is %d", devices, sys, float64(sys)/float64(devices), sysBound)
	}
	return sys
}

// TestScale100k is the 10^5-device point. The run measures about 17 MiB;
// state allocated eagerly per device, or a fleet that keeps a buffer per
// shard it synthesizes, is a jump of 10-100x, not the 4x the bound leaves.
func TestScale100k(t *testing.T) {
	checkScale(t, 100_000, 1.6149061606315247, 64<<20)
}

// BenchmarkScaleMillion is the 10^6-device point under the design's hard
// ceiling: a million-device virtual-time run fits in 2 GiB. It takes
// about 8 s on two cores, so CI runs it (-benchtime 1x) and tier-1 does
// not.
func BenchmarkScaleMillion(b *testing.B) {
	const devices = 1_000_000
	for i := 0; i < b.N; i++ {
		sys := checkScale(b, devices, 1.6134464614387418, 2<<30)
		b.ReportMetric(float64(sys)/devices, "B/device")
	}
}
