package core

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

// nanPoint returns a Point with every optional float NaN, as the
// recorders produce for untracked features.
func nanPoint(round int, loss, acc float64) Point {
	return Point{
		Round:           round,
		TrainLoss:       loss,
		TestAcc:         acc,
		GradVar:         math.NaN(),
		B:               math.NaN(),
		MeanGamma:       math.NaN(),
		MeanStaleness:   math.NaN(),
		MaxStaleness:    math.NaN(),
		VirtualSeconds:  math.NaN(),
		MeanEpochsDone:  math.NaN(),
		PartialFraction: math.NaN(),
	}
}

// TestHistoryStringGolden pins the rendered table byte for byte for the
// column combinations the executors produce, including the
// staleness+work+vtime combination whose headers drifted from the rows
// under the old per-branch format strings.
func TestHistoryStringGolden(t *testing.T) {
	sync := &History{Label: "FedProx(mu=1)", Points: []Point{
		nanPoint(0, 1.25, 0.5),
		func() Point { p := nanPoint(5, 0.875, 0.625); p.GradVar = 0.25; p.Mu = 1; return p }(),
	}}
	wantSync := strings.Join([]string{
		"FedProx(mu=1)",
		" round   train-loss  test-acc     grad-var       mu",
		"     0       1.2500    0.5000            -        0",
		"     5       0.8750    0.6250         0.25        1",
		"",
	}, "\n")
	if got := sync.String(); got != wantSync {
		t.Errorf("sync table:\n got:\n%s\nwant:\n%s", got, wantSync)
	}

	all := &History{Label: "FedBuff(k=5) [vtime]", Points: []Point{
		func() Point {
			p := nanPoint(0, 1.25, 0.5)
			p.VirtualSeconds = 0
			return p
		}(),
		func() Point {
			p := nanPoint(5, 0.875, 0.625)
			p.Mu = 1
			p.MeanStaleness = 1.5
			p.MaxStaleness = 4
			p.MeanEpochsDone = 12.25
			p.PartialFraction = 0.4
			p.VirtualSeconds = 103.0625
			return p
		}(),
	}}
	wantAll := strings.Join([]string{
		"FedBuff(k=5) [vtime]",
		" round   train-loss  test-acc     grad-var       mu mean-stale max-stale mean-epochs  partial    vtime-s",
		"     0       1.2500    0.5000            -        0          -         -           -        -      0.000",
		"     5       0.8750    0.6250            -        1       1.50         4       12.25      40%    103.062",
		"",
	}, "\n")
	if got := all.String(); got != wantAll {
		t.Errorf("staleness+work+vtime table:\n got:\n%s\nwant:\n%s", got, wantAll)
	}

	// Alignment holds structurally for every combination: each line of
	// the table body is exactly as long as the header line.
	for _, h := range []*History{sync, all} {
		lines := strings.Split(strings.TrimRight(h.String(), "\n"), "\n")
		for i := 2; i < len(lines); i++ {
			if len(lines[i]) != len(lines[1]) {
				t.Errorf("%s: row %d width %d != header width %d", h.Label, i-1, len(lines[i]), len(lines[1]))
			}
		}
	}
}

// TestHistoryStringWideCell verifies a cell wider than its historical
// column width stretches the whole column instead of breaking alignment.
func TestHistoryStringWideCell(t *testing.T) {
	h := &History{Label: "wide", Points: []Point{
		func() Point { p := nanPoint(1234567, 1e10, 0.5); return p }(),
	}}
	lines := strings.Split(strings.TrimRight(h.String(), "\n"), "\n")
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("header width %d != row width %d:\n%s", len(lines[1]), len(lines[2]), h.String())
	}
}

func TestReplyLatencyQuantiles(t *testing.T) {
	h := &History{}
	for _, q := range h.ReplyLatencyQuantiles(0.5, 0.9) {
		if !math.IsNaN(q) {
			t.Fatalf("empty trace must yield NaN quantiles, got %v", q)
		}
	}
	// Latencies 1..5 in scrambled arrival order.
	for _, lat := range []float64{3, 1, 5, 2, 4} {
		h.Arrivals = append(h.Arrivals, Arrival{Sent: 10, Arrived: 10 + lat})
	}
	got := h.ReplyLatencyQuantiles(0, 0.5, 0.75, 1)
	want := []float64{1, 3, 4, 5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("quantile %d = %v, want %v", i, got[i], want[i])
		}
	}
	if q := h.ReplyLatencyQuantiles(1.5)[0]; !math.IsNaN(q) {
		t.Errorf("out-of-range quantile must be NaN, got %v", q)
	}
}

// TestArrivalSize pins the trace record at 24 bytes. A History keeps one
// Arrival per contact for the life of the run: the benchmark retains one
// History per repetition, and a scale run holds one record per contact of
// 10^5–10^6 devices, so a wider field is paid for in resident memory. A
// reply's seq and staleness are in its obs.KindReply event, not here,
// and Drop sits beside Device so the two share one word.
func TestArrivalSize(t *testing.T) {
	if got := unsafe.Sizeof(Arrival{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Arrival{}) = %d, want 24", got)
	}
}
