package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

// manifest is ../BENCHMARK.json as the smoke test reads it.
type manifest struct {
	Paths     []string
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct{ Name, Unit string }

// miniature shrinks every size so that all five workloads run both ways
// in a few seconds: a handful of rounds on a fraction of the data. What a
// run of that size cannot show — convergence, and phases that dwarf the
// bookkeeping around them — is not asked of it; every other output check
// stays.
func miniature(t *testing.T) []workload {
	old, oldFloor := dims, attributedFloor
	t.Cleanup(func() { dims, attributedFloor = old, oldFloor })
	dims.mnistScale, dims.fleetDevices = 0.05, 400
	attributedFloor = 0
	small := append([]workload(nil), workloads...)
	for i := range small {
		small[i].rounds = 4
		small[i].maxLossShare, small[i].minAcc = 10, 0
		small[i].lossBand = [2]float64{0, 10}
	}
	return small
}

func TestSmoke(t *testing.T) {
	var m manifest
	if err := readJSON("../BENCHMARK.json", &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
	small := miniature(t)
	if len(m.Workloads) != len(small) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(small))
	}
	for i := range small {
		w := &small[i]
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, m.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			res, err := measure(w, 1, 0.02, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %q", w.name, trace, res.failed, res.attempted, res.failures)
			}
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			l := res.line(trace)
			if len(l.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(l.Metrics), len(want))
			}
			for _, mm := range want {
				got, ok := l.Metrics[mm.Name]
				if !ok || got.Unit != mm.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] of BENCHMARK.json emitted as %+v (present: %v)", w.name, trace, mm.Name, mm.Unit, got, ok)
				}
				if _, computed := res.metrics[mm.Name]; !computed && !trace {
					t.Errorf("%s: end-to-end metric %s was not measured", w.name, mm.Name)
				}
			}
			// The line must survive the trip the driver takes it on.
			b, err := json.Marshal(l)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var back line
			if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, l) {
				t.Errorf("%s trace=%v: result line does not round-trip: %v", w.name, trace, err)
			}
		}
	}
}

// TestProbesAreInert runs each workload with and without the sink and
// the Fleet and LocalSolver decorators: the decorators must have been on
// the path, and the History must be the same bit for bit.
func TestProbesAreInert(t *testing.T) {
	small := miniature(t)
	for i := range small {
		w := &small[i]
		in := w.build(3, w.rounds)
		plain, err := w.runUnit(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		pr := w.newProbes(in)
		traced, err := w.runUnit(in, pr)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(plain.hist) != fingerprint(traced.hist) {
			t.Errorf("%s: History differs with probes", w.name)
		}
		if plain.hist.Label != traced.hist.Label {
			t.Errorf("%s: label %q became %q with probes", w.name, plain.hist.Label, traced.hist.Label)
		}
		if len(pr.sink.evs) == 0 {
			t.Errorf("%s: the sink saw no events", w.name)
		}
		if pr.solver != nil && len(pr.solver.durs) != w.rounds*w.clients {
			t.Errorf("%s: solver decorator timed %d solves, want %d", w.name, len(pr.solver.durs), w.rounds*w.clients)
		}
		if pr.fleet != nil && len(pr.fleet.durs) == 0 {
			t.Errorf("%s: fleet decorator saw no shard materialised", w.name)
		}
	}
}
