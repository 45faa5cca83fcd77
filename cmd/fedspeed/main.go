// Command fedspeed regenerates and gates the repository's committed
// performance baselines: BENCH_speed.json (hot-path ns/op, see
// internal/speed) and BENCH_scale.json (population-scale virtual-time
// runs over a lazy fleet). Where BENCH_baseline.json ratchets model
// quality (cmd/fedbench -baseline), these ratchet mechanism speed and
// scalability: the CI bench-smoke job fails when a gated number drifts
// past its committed baseline by more than the tolerance.
//
//	fedspeed -out BENCH_speed.json              # (re)generate the micro baseline
//	fedspeed -baseline BENCH_speed.json         # gate: exit 1 on ns/op regression
//	fedspeed -scale all -scale-out BENCH_scale.json        # full scale sweep (10^5, 10^6)
//	fedspeed -scale 100000 -scale-baseline BENCH_scale.json # CI smoke: gate the 10^5 point
//
// The micro benchmarks are the exact bodies `go test -bench` runs
// (BenchmarkCoordinatorFold, BenchmarkDeviceDispatch), executed through
// testing.Benchmark with its standard auto-calibration. The scale runs
// are speed.ScaleRun: seeded asynchronous virtual-time runs whose
// throughput (dispatches/sec) and footprint (bytes/device) are gated,
// and whose peak memory must clear a hard 2 GB ceiling regardless of
// any baseline.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fedprox/internal/obs"
	"fedprox/internal/speed"
)

func main() {
	var (
		out        = flag.String("out", "", "write the measured BENCH_speed.json to this file")
		baseline   = flag.String("baseline", "", "compare against a committed BENCH_speed.json and exit non-zero on ns/op regressions")
		tolerance  = flag.Float64("tolerance", 0.15, "relative ns/op budget for -baseline (0.15 = 15%)")
		scaleArg   = flag.String("scale", "", "comma-separated device counts to scale-run, or \"all\" for the committed sweep sizes")
		scaleOut   = flag.String("scale-out", "", "write the measured BENCH_scale.json to this file")
		scaleBase  = flag.String("scale-baseline", "", "compare against a committed BENCH_scale.json and exit non-zero on throughput/footprint regressions or a diverged final loss")
		scaleTol   = flag.Float64("scale-tolerance", 0.5, "relative budget for -scale-baseline (0.5 = 50%; the gate targets order-of-magnitude O(N) regressions, not jitter)")
		scaleTrace = flag.String("scale-trace", "", "stream the JSONL event trace of the scale runs to this file (see internal/obs)")
	)
	flag.Parse()
	micro := *out != "" || *baseline != ""
	if !micro && *scaleArg == "" {
		fmt.Fprintln(os.Stderr, "fedspeed: nothing to do; pass -out/-baseline and/or -scale")
		os.Exit(2)
	}

	if micro {
		runMicro(*out, *baseline, *tolerance)
	}
	if *scaleArg != "" {
		runScale(*scaleArg, *scaleOut, *scaleBase, *scaleTol, *scaleTrace)
	}
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func runMicro(out, baseline string, tolerance float64) {
	// Three repetitions of the full suite, interleaved so each rep's
	// benchmarks share machine conditions. The committed point for each
	// benchmark is its best rep — ns/op only ever reads high under
	// interference (scheduler, turbo, cache pollution), so the minimum is
	// the noise-robust estimate of the true cost.
	const reps = 3
	pts := make([]obs.BenchPoint, len(speed.Benchmarks))
	for rep := 0; rep < reps; rep++ {
		for i, bm := range speed.Benchmarks {
			runtime.GC() // isolate each benchmark from its predecessors' garbage
			r := testing.Benchmark(bm.Fn)
			if p := nsPerOp(r); rep == 0 || p < pts[i].NsPerOp {
				pts[i] = obs.BenchPoint{
					Name:        bm.Name,
					NsPerOp:     p,
					AllocsPerOp: r.AllocsPerOp(),
					BytesPerOp:  r.AllocedBytesPerOp(),
					Iterations:  r.N,
				}
			}
		}
	}
	for _, best := range pts {
		fmt.Printf("%-20s %12.0f ns/op %8d B/op %6d allocs/op  (%d iterations)\n",
			best.Name, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp, best.Iterations)
	}

	if out != "" {
		writeJSON(out, func(f *os.File) error { return obs.WriteSpeed(f, pts) })
		fmt.Printf("wrote %s\n", out)
	}
	if baseline != "" {
		f, err := os.Open(baseline)
		if err != nil {
			fail(err)
		}
		base, err := obs.ReadSpeed(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if regressions := obs.CompareSpeed(pts, base, tolerance); len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "fedspeed: %d speed regression(s) vs %s:\n", len(regressions), baseline)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("speed gate passed: no regressions vs %s (tolerance %.0f%%)\n", baseline, 100*tolerance)
	}
}

func runScale(arg, out, baseline string, tolerance float64, tracePath string) {
	var sizes []int
	if arg == "all" {
		sizes = speed.ScaleSizes
	} else {
		for _, s := range strings.Split(arg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fail(fmt.Errorf("bad -scale device count %q", s))
			}
			sizes = append(sizes, n)
		}
	}

	var trace obs.Sink
	closeTrace := func() {}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fail(err)
		}
		w := bufio.NewWriterSize(f, 1<<16)
		j := obs.NewJSONL(w)
		trace = j
		closeTrace = func() {
			err := j.Err()
			if ferr := w.Flush(); err == nil {
				err = ferr
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail(fmt.Errorf("scale trace: %w", err))
			}
		}
	}

	pts := make([]obs.ScalePoint, 0, len(sizes))
	for _, n := range sizes {
		pt, err := speed.ScaleRun(n, trace)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-16s %10.0f dispatches/sec %10.0f bytes/device %8.1f MiB peak %8.1fs wall\n",
			pt.Name, pt.DispatchesPerSec, pt.BytesPerDevice, float64(pt.PeakSysBytes)/(1<<20), pt.WallSeconds)
		pts = append(pts, pt)
	}
	closeTrace()

	if out != "" {
		writeJSON(out, func(f *os.File) error { return obs.WriteScale(f, pts) })
		fmt.Printf("wrote %s\n", out)
	}
	if baseline != "" {
		f, err := os.Open(baseline)
		if err != nil {
			fail(err)
		}
		base, err := obs.ReadScale(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if regressions := obs.CompareScale(pts, base, tolerance); len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "fedspeed: %d scale regression(s) vs %s:\n", len(regressions), baseline)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("scale gate passed: no regressions vs %s (tolerance %.0f%%)\n", baseline, 100*tolerance)
	}
}

func writeJSON(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "fedspeed: %v\n", err)
	os.Exit(1)
}
