// Command fedbench regenerates the tables and figures of "Federated
// Optimization in Heterogeneous Networks" (Li et al., MLSys 2020) on the
// simulated substrates in this repository.
//
// Usage:
//
//	fedbench -list
//	fedbench -exp figure1 [-fast] [-datasets synthetic,mnist] [-csv out.csv] [-series]
//	fedbench -exp ext-async,ext-vtime -fast -json BENCH_ci.json -baseline BENCH_baseline.json
//	fedbench -exp all -fast
//
// By default experiments run at the "full" preset (minutes); -fast runs
// the miniature preset used by the benchmark suite (seconds).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fedprox/internal/cli"
	"fedprox/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id or comma-separated ids (see -list), or \"all\"")
		list      = flag.Bool("list", false, "list available experiments")
		fast      = flag.Bool("fast", false, "use the miniature preset (seconds per figure)")
		series    = flag.Bool("series", false, "print full per-round series, not just the summary")
		csvPath   = flag.String("csv", "", "also write every evaluated point as CSV to this file")
		jsonPath  = flag.String("json", "", "write machine-readable run summaries (BENCH_*.json) to this file")
		baseline  = flag.String("baseline", "", "compare against a committed BENCH_*.json and exit non-zero on loss regressions")
		tolerance = flag.Float64("tolerance", 0.05, "relative final-loss budget for -baseline (0.05 = 5%)")
		datasets  = flag.String("datasets", "", "comma-separated subset of synthetic,mnist,femnist,shakespeare,sent140")
		rounds    = flag.Int("rounds", 0, "override communication rounds for convex workloads")
		seed      = flag.Uint64("seed", 0, "override environment seed")
		scale     = flag.Float64("scale", 0, "override dataset scale factor")

		codecFlags cli.Codec
		precFlags  cli.Precision
		asyncFlags cli.Async
		tierFlags  cli.Tier
		vtimeFlags cli.VTime
		traceFlags cli.Trace
	)
	codecFlags.Register(flag.CommandLine)
	precFlags.Register(flag.CommandLine)
	asyncFlags.RegisterOverrides(flag.CommandLine)
	tierFlags.Register(flag.CommandLine)
	vtimeFlags.Register(flag.CommandLine)
	traceFlags.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("  %-10s %s\n", id, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "fedbench: -exp is required (try -list)")
		os.Exit(2)
	}

	opts := experiments.Full()
	if *fast {
		opts = experiments.Fast()
	}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}
	if *rounds > 0 {
		opts.Rounds = *rounds
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	if err := codecFlags.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
		os.Exit(2)
	}
	opts.Codec = codecFlags.Name
	opts.DownlinkCodec = codecFlags.Downlink
	opts.CodecBits = codecFlags.Bits
	opts.CodecTopK = codecFlags.TopK
	opts.Precision = precFlags.Name
	opts.AsyncAlpha = asyncFlags.Alpha
	opts.AsyncStalenessExp = asyncFlags.StalenessExp
	opts.AsyncBufferK = asyncFlags.BufferK
	opts.VTimeDeadline = vtimeFlags.Deadline
	opts.VTimeRoundBytes = vtimeFlags.RoundBytes
	tierFan, tierLatency, err := tierFlags.SimOverride()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
		os.Exit(2)
	}
	opts.TierFanOut = tierFan
	opts.TierLatency = tierLatency

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.IDs()
	}

	// closeTrace finalizes the -trace file; main's os.Exit error paths
	// bypass defers, so it runs explicitly once the runs are done.
	trace, closeTrace, err := traceFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
		os.Exit(1)
	}
	if trace != nil {
		opts.Trace = trace
	}

	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
			os.Exit(1)
		}
		csvFile = f
	}

	var entries []experiments.BenchEntry
	for i, id := range ids {
		res, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(res.Summary())
		if *series {
			fmt.Println(res.Series())
		}
		if csvFile != nil {
			if err := res.WriteCSV(csvFile, i == 0); err != nil {
				fmt.Fprintf(os.Stderr, "fedbench: csv: %v\n", err)
				os.Exit(1)
			}
		}
		entries = append(entries, res.BenchEntries()...)
	}
	if err := closeTrace(); err != nil {
		fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
		os.Exit(1)
	}
	if csvFile != nil {
		if err := csvFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: csv: %v\n", err)
			os.Exit(1)
		}
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
			os.Exit(1)
		}
		err = experiments.WriteBench(f, entries)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: json: %v\n", err)
			os.Exit(1)
		}
	}
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
			os.Exit(1)
		}
		base, err := experiments.ReadBench(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %v\n", err)
			os.Exit(1)
		}
		if regressions := experiments.CompareBench(entries, base, *tolerance); len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "fedbench: %d loss regression(s) vs %s:\n", len(regressions), *baseline)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("baseline gate passed: no regressions vs %s (tolerance %.0f%%)\n", *baseline, 100**tolerance)
	}
}
