package core

import (
	"testing"

	"fedprox/internal/comm"
)

// shadows counts the devices whose broadcast shadow an endpoint's link
// state holds.
func shadows(t *testing.T, l *commLinks) int {
	t.Helper()
	snap, err := l.state.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range snap.Devices {
		if d.Prev != nil {
			n++
		}
	}
	return n
}

// TestBroadcastViewHasOneOwner pins the broadcast-view ownership rule of
// an in-process codec run: the coordinator's link adopts each decoded
// view as the device's shadow, the pending dispatch borrows that shadow
// as its uplink decode base and ships it as the Dispatch's View, and the
// in-process device trains from it rather than decoding a second chain.
// Under the poolpoison tag a shadow recycled while still borrowed turns
// this run's bits, and the parity tests', into NaNs.
func TestBroadcastViewHasOneOwner(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := FedProx(6, 8, 3, 0.01, 1)
	cfg.StragglerFraction = 0.5
	cfg.EvalEvery = 2
	cfg.Codec = comm.Spec{Name: "delta+qsgd", Bits: 8}
	cfg.DownlinkCodec = cfg.Codec

	coord, dev, err := newSimPair(m, fed.Fleet(), cfg, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	contacted := map[int]bool{}
	b := &simBackend{inProcess: inProcess{
		coord: coord,
		eval:  func(v Evaluate) EvalResult { return simEval(m, fed.Fleet(), v) },
	}}
	b.serve = func(ds []Dispatch) ([]Reply, error) {
		for _, d := range ds {
			contacted[d.Device] = true
			shadow, in := coord.links.state.Prev(d.Device), coord.pending[d.Device]
			if len(shadow) == 0 || &in.view[0] != &shadow[0] || &d.View[0] != &shadow[0] {
				t.Fatalf("round %d, device %d: the pending view and the Dispatch's View are not the device's shadow", d.Round, d.Device)
			}
			if in.owned {
				t.Fatalf("round %d, device %d: a pending dispatch owns the shadow it borrows", d.Round, d.Device)
			}
		}
		return runDispatches(dev, cfg.Parallelism, nil, ds)
	}
	h, err := runToDone(coord, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(contacted) == 0 {
		t.Fatal("no device was contacted")
	}
	if got := shadows(t, coord.links); got != len(contacted) {
		t.Errorf("coordinator holds %d broadcast shadows, want one per contacted device (%d)", got, len(contacted))
	}
	if got := shadows(t, dev.links); got != 0 {
		t.Errorf("in-process device holds %d broadcast shadows, want 0", got)
	}
	want, err := RunFleet(m, fed.Fleet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !historiesEqual(h, want) {
		t.Error("the observed run's history differs from RunFleet's")
	}
}
