// Command benchmark is the repository's benchmark of record: five
// fixed-work workloads over the three executors (in-process simulator,
// virtual time, fednet over TCP loopback), each measured end to end
// untraced and layer by layer traced. README.md defines every workload
// and metric; ../BENCHMARK.json is the contract a driver reads.
//
//	go run . -workload sim-codec -seed 3 -seconds 10 -trace 0   one run, one JSON line
//	go run . [-seed N] [-runs R] [-out report.json]              every workload, both ways
//	go run . -compare a.json b.json                              two reports against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the result a single-workload run prints last on its standard
// output.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "run this workload alone and print one JSON result line (default: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long one run repeats its unit of work")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics of untraced runs, 1 the per-layer metrics of traced runs")
	runs := flag.Int("runs", 1, "without -workload: untraced runs per workload, on seeds seed, seed+1, ...; their spread is reported")
	out := flag.String("out", "", "without -workload: also write the report to this file")
	compare := flag.Bool("compare", false, "compare the two report files given as arguments against the bounds in -manifest")
	manifest := flag.String("manifest", "../BENCHMARK.json", "the benchmark contract, for -compare")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareReports(os.Stdout, *manifest, flag.Args())
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace == 1)
	default:
		err = runAll(*seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its result
// line. Failed output checks are named on standard error and make the
// exit code non-zero, after the line.
func runOne(name string, seed uint64, seconds float64, trace bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := measure(w, seed, seconds, trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "repetitions %.4f s\nset-ups %.4f s\n", res.repetitions, res.setups)
	l := res.line(trace)
	for _, d := range metricDefs(trace) {
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", d.name, l.Metrics[d.name].Value, d.unit)
	}
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed: %q", name, res.failed, res.attempted, res.failures)
	}
	return nil
}

// metricDefs are the metrics a run reports: end to end, or per layer
// when traced.
func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// line is the result line of r: every end-to-end metric, or with trace
// every per-layer metric, each by name with its unit. A per-layer metric
// that does not apply to the workload, or has no finite value, reads 0.
func (r *result) line(trace bool) line {
	l := line{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range metricDefs(trace) {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		l.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	return l
}

// report is what a run of every workload writes and -compare reads.
type report struct {
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]value  `json:"per_layer"`
}

// series is an end-to-end metric over the report's untraced runs: the
// median, and every run's value in seed order.
type series struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// runAll runs every workload, untraced on each of runs seeds and then
// traced on the first, each run in a child process of its own so that
// peak memory and pool state are that run's alone; the children run
// strictly one after the other. It prints every metric by name and
// fails if any child does.
func runAll(seed uint64, seconds float64, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Seed: seed, Seconds: seconds}
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, Correct: true, EndToEnd: map[string]series{}}
		child := func(seed uint64, trace int) (map[string]value, error) {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			fmt.Fprintf(os.Stderr, "\n== %s, seed %d, trace %d\n", w.name, seed, trace)
			stdout, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			last := bytes.TrimSpace(stdout)
			if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
				last = last[i+1:]
			}
			var l line
			if err := json.Unmarshal(last, &l); err != nil {
				return nil, fmt.Errorf("%s: result line: %w", w.name, err)
			}
			wr.Correct = wr.Correct && l.Correct
			wr.Attempted += l.Attempted
			wr.Failed += l.Failed
			return l.Metrics, nil
		}
		for r := 0; r < runs; r++ {
			m, err := child(seed+uint64(r), 0)
			if err != nil {
				return err
			}
			for name, v := range m {
				s := wr.EndToEnd[name]
				s.Unit = v.Unit
				s.Values = append(s.Values, v.Value)
				s.Value = median(s.Values)
				wr.EndToEnd[name] = s
			}
		}
		if wr.PerLayer, err = child(seed, 1); err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out != "" {
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
	}
	_, err = os.Stdout.Write(b)
	return err
}
