// Command fedbench regenerates the tables and figures of "Federated
// Optimization in Heterogeneous Networks" (Li et al., MLSys 2020) on the
// simulated substrates in this repository.
//
// Usage:
//
//	fedbench -list
//	fedbench -exp figure1 [-fast] [-datasets synthetic,mnist] [-csv out.csv] [-series]
//	fedbench -exp ext-async,ext-vtime -fast -json BENCH_run.json
//	fedbench -exp all -fast
//
// By default experiments run at the "full" preset (minutes); -fast runs
// the miniature preset used by the benchmark suite (seconds).
//
// Ids given together share their runs: each distinct configuration
// executes once, and every figure that shows it prints a view of it
// (Figure 7 is Figure 1's runs, Figure 8 tracks Figure 1's no-straggler
// runs), so a -trace records each run once.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fedprox/internal/cli"
	"fedprox/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it writes the tables to stdout.
var run = cli.Command("fedbench", bench)

func bench(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("fedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "experiment id or comma-separated ids (see -list), or \"all\"")
		list     = fs.Bool("list", false, "list available experiments")
		fast     = fs.Bool("fast", false, "use the miniature preset (seconds per figure)")
		series   = fs.Bool("series", false, "print full per-round series, not just the summary")
		csvPath  = fs.String("csv", "", "also write every evaluated point as CSV to this file")
		jsonPath = fs.String("json", "", "write machine-readable run summaries (BENCH_*.json) to this file")
		datasets = fs.String("datasets", "", "comma-separated subset of synthetic,mnist,femnist,shakespeare,sent140")
		rounds   = fs.Int("rounds", 0, "override communication rounds for convex workloads")
		seed     = fs.Uint64("seed", 0, "override environment seed")
		scale    = fs.Float64("scale", 0, "override dataset scale factor")

		codecFlags cli.Codec
		precFlags  cli.Precision
		asyncFlags cli.Async
		tierFlags  cli.Tier
		vtimeFlags cli.VTime
		traceFlags cli.Trace
	)
	codecFlags.Register(fs)
	precFlags.Register(fs)
	asyncFlags.RegisterOverrides(fs)
	tierFlags.Register(fs)
	vtimeFlags.Register(fs)
	traceFlags.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "available experiments:")
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Fprintf(stdout, "  %-10s %s\n", id, e.Title)
		}
		return nil
	}
	if *exp == "" {
		return cli.Usage(errors.New("-exp is required (try -list)"))
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
		return cli.Usage(err)
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
	if opts.TierFanOut, opts.TierLatency, err = tierFlags.SimOverride(); err != nil {
		return cli.Usage(err)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.IDs()
	}

	trace, closeTrace, err := traceFlags.Open()
	if err != nil {
		return err
	}
	defer closeTrace(&err)
	if trace != nil {
		opts.Trace = trace
	}

	var csvFile *os.File
	if *csvPath != "" {
		if csvFile, err = os.Create(*csvPath); err != nil {
			return err
		}
		defer csvFile.Close() // for the error paths; success closes it below
	}

	opts = experiments.Together(opts, ids...)
	var entries []experiments.BenchEntry
	for i, id := range ids {
		res, err := experiments.Run(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(stdout, res.Summary())
		if *series {
			fmt.Fprintln(stdout, res.Series())
		}
		if csvFile != nil {
			if err := res.WriteCSV(csvFile, i == 0); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
		entries = append(entries, res.BenchEntries()...)
	}
	if csvFile != nil {
		if err := csvFile.Close(); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
	}

	if *jsonPath != "" {
		if err := experiments.WriteBench(*jsonPath, entries); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	return nil
}
