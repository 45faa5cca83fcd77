package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestScaleRoundTripAndGate(t *testing.T) {
	pts := []ScalePoint{
		{Name: "scale-100000", Devices: 100_000, Dispatches: 2000, DispatchesPerSec: 400,
			BytesPerDevice: 220, PeakSysBytes: 22 << 20, WallSeconds: 5, FinalLoss: 1.61},
		{Name: "scale-1000000", Devices: 1_000_000, Dispatches: 2000, DispatchesPerSec: 40,
			BytesPerDevice: 140, PeakSysBytes: 140 << 20, WallSeconds: 50, FinalLoss: 1.61},
	}
	var buf bytes.Buffer
	if err := WriteScale(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScale(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != pts[0] || got[1] != pts[1] {
		t.Fatalf("round trip: %+v", got)
	}

	// Every row gates one scale-100000 measurement (plus extras)
	// against pts at a 50% tolerance; want lists a fragment of each
	// expected message, in order.
	at := func(perSec, bytesPerDevice, loss float64) ScalePoint {
		return ScalePoint{Name: "scale-100000", DispatchesPerSec: perSec, BytesPerDevice: bytesPerDevice, FinalLoss: loss}
	}
	for _, tc := range []struct {
		name string
		cur  []ScalePoint
		want []string
	}{
		{"30% slower and 30% fatter is within budget", []ScalePoint{at(280, 286, 1.61)}, nil},
		{"throughput below floor and footprint above ceiling both flag", []ScalePoint{at(100, 400, 1.61)},
			[]string{"dispatches/sec", "bytes/device"}},
		// Unlike CompareSpeed, a baseline point the current run skipped
		// is NOT a regression — CI smoke re-measures only the sizes in
		// budget.
		{"skipped baseline size passes", []ScalePoint{at(400, 220, 1.61)}, nil},
		{"a size new to current ratchets in silently",
			[]ScalePoint{at(400, 220, 1.61), {Name: "scale-10000000", DispatchesPerSec: 1, BytesPerDevice: 999}}, nil},
		// The seeded run's loss is a tripwire with its own tolerance:
		// the gate's 50% does not apply to it.
		{"final loss off in the sixth digit flags", []ScalePoint{at(400, 220, 1.61001)}, []string{"final loss"}},
		{"final loss within 1e-9 relative passes", []ScalePoint{at(400, 220, 1.61*(1+1e-10))}, nil},
		{"NaN final loss flags", []ScalePoint{at(400, 220, math.NaN())}, []string{"final loss"}},
	} {
		msgs := CompareScale(tc.cur, pts, 0.5)
		if len(msgs) != len(tc.want) {
			t.Fatalf("%s: want %d regressions, got %v", tc.name, len(tc.want), msgs)
		}
		for i, frag := range tc.want {
			if !strings.Contains(msgs[i], frag) {
				t.Fatalf("%s: message %d lacks %q: %v", tc.name, i, frag, msgs)
			}
		}
	}
}
