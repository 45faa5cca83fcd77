package core

import (
	"math"
	"testing"

	"fedprox/internal/tensor"
	"fedprox/internal/vtime"
)

// TestJudgePrecedenceAndWindow: one verdict for both modes — lost beats
// the deadline, the deadline beats the drain, the drain beats the byte
// budget — and the window grows by what Cost charges: down + up for a
// transmitted reply, down alone for a lost one.
func TestJudgePrecedenceAndWindow(t *testing.T) {
	const down, up = 10, 20
	for _, tc := range []struct {
		name          string
		window        int64
		rel           float64
		lost, drained bool
		want          DropReason
		wantWindow    int64
	}{
		{"lost beats all", 90, 5, true, true, DropLost, 100},
		{"lost over a spent window", 100, 0.5, true, false, DropLost, 110},
		{"deadline beats drain and budget", 90, 5, false, true, DropDeadline, 120},
		{"drain beats budget", 90, 0.5, false, true, DropDrain, 120},
		{"budget", 90, 0.5, false, false, DropBudget, 120},
		{"fits exactly", 70, 0.5, false, false, ArrivalFolded, 100},
		{"untimed is never late", 0, math.NaN(), false, false, ArrivalFolded, 30},
	} {
		c := &Coordinator{cfg: Config{VTime: VTimeConfig{DeadlineSeconds: 1, RoundBytes: 100}}, windowBytes: tc.window}
		if got := c.judge(tc.rel, tc.lost, tc.drained, down, up); got != tc.want {
			t.Errorf("%s: verdict %v, want %v", tc.name, got, tc.want)
		}
		if c.windowBytes != tc.wantWindow {
			t.Errorf("%s: window %d, want %d", tc.name, c.windowBytes, tc.wantWindow)
		}
	}
}

// TestVTimeSyncLostReplyWindow: a synchronous virtual-time round with
// both network loss and a byte budget judges its replies under the same
// rule as an asynchronous milestone. Each round's arrivals (grouped by
// Sent, recorded in arrival order) are re-judged from History alone: on
// a raw wire a transmitted reply consumes 2·paramBytes of the window and
// a lost one only its downlink, paramBytes.
func TestVTimeSyncLostReplyWindow(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	paramBytes := rawBytes(mdl.NumParams(), tensor.F64)
	cfg := FedProx(6, 5, 3, 0.01, 1)
	cfg.VTime = VTimeConfig{
		Model: vtime.MustModel(
			vtime.UniformCompute{SecondsPerEpoch: 0.2, Speed: vtime.SlowTail(n, 0.2, 10)},
			vtime.Net{UplinkBps: 1e6, DownlinkBps: 4e6, Latency: 0.01, DropProb: 0.3},
			23,
		),
		RoundBytes: 7 * paramBytes,
	}
	h, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var order []float64
	rounds := map[float64][]Arrival{}
	for _, a := range h.Arrivals {
		if rounds[a.Sent] == nil {
			order = append(order, a.Sent)
		}
		rounds[a.Sent] = append(rounds[a.Sent], a)
	}
	if len(order) != cfg.Rounds {
		t.Fatalf("%d rounds of arrivals, want %d", len(order), cfg.Rounds)
	}
	count := map[DropReason]int{}
	for _, sent := range order {
		var window int64
		for _, a := range rounds[sent] {
			want := ArrivalFolded
			switch {
			case a.Drop == DropLost: // the network's draw, not a policy
				want = DropLost
				window += paramBytes
			case window+2*paramBytes > cfg.VTime.RoundBytes:
				want = DropBudget
				window += 2 * paramBytes
			default:
				window += 2 * paramBytes
			}
			if a.Drop != want {
				t.Fatalf("round sent at %g: device %d judged %v, the one rule says %v", sent, a.Device, a.Drop, want)
			}
			count[a.Drop]++
		}
	}
	if count[DropLost] == 0 || count[DropBudget] == 0 || count[ArrivalFolded] == 0 {
		t.Fatalf("probe does not exercise loss and budget together: %v", count)
	}
	// The uplink of every reply but a lost one was charged.
	if got, want := h.Final().Cost.UplinkBytes, int64(len(h.Arrivals)-count[DropLost])*paramBytes; got != want {
		t.Fatalf("uplink cost %d, want %d", got, want)
	}
}
