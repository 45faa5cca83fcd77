// Command fedgen generates a federated dataset to a file, prints its
// Table-1 statistics, and optionally verifies an existing file — the
// data-preparation step of the reproduction pipeline (the role LEAF's
// preprocessing scripts play for the paper). With -vtime it instead
// prints the workload's virtual-time infrastructure profile (per-tier
// compute times, transfer times for the model size, emergent straggler
// rate) — the planning step for choosing ext-vtime deadlines and byte
// budgets.
//
//	fedgen -workload mnist -scale 0.5 -out mnist.fed
//	fedgen -verify mnist.fed
//	fedgen -workload synthetic -vtime -epochs 20
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"fedprox/internal/cli"
	"fedprox/internal/data/datafile"
	"fedprox/internal/experiments"
	"fedprox/internal/syshet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it writes its report to stdout.
var run = cli.Command("fedgen", generate)

func generate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fedgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "synthetic", "workload key: synthetic, synthetic-iid, mnist, femnist, shakespeare, sent140")
		scale    = fs.Float64("scale", 1.0, "dataset scale factor")
		out      = fs.String("out", "", "output path (required unless -verify or -vtime)")
		verify   = fs.String("verify", "", "verify an existing dataset file and print its stats")
		vtimeP   = fs.Bool("vtime", false, "print the workload's virtual-time latency profile instead of writing a file")
		epochs   = fs.Int("epochs", 20, "-vtime: local epoch budget E to profile")
		seed     = fs.Uint64("seed", 7, "-vtime: fleet assignment seed")

		debugFlags cli.Debug
	)
	debugFlags.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	// fedgen has no event stream to aggregate; the endpoint serves pprof
	// only (profile large -scale generations).
	debugFlags.Serve("fedgen", false, stderr)

	if *verify != "" {
		fed, err := datafile.ReadFile(*verify)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "ok: %s\n", fed.ComputeStats())
		return nil
	}
	if *out == "" && !*vtimeP {
		return errors.New("-out is required (or -vtime for a latency profile)")
	}
	opts := experiments.Full()
	opts.Scale = *scale
	w, err := opts.NamedWorkload(*workload)
	if err != nil {
		return err
	}
	if *vtimeP {
		printVTimeProfile(stdout, w, *epochs, *seed)
		return nil
	}
	if err := datafile.WriteFile(*out, w.Fed); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%.1f MB)\n%s\n", *out, float64(info.Size())/(1<<20), w.Fed.ComputeStats())
	return nil
}

// printVTimeProfile builds the default syshet fleet over the workload
// and writes to out the numbers a virtual-time experiment is tuned with: how
// long each hardware tier needs for E epochs on the mean shard, what the
// uncompressed model transfer costs, and the straggler rate a given
// deadline induces.
func printVTimeProfile(out io.Writer, w experiments.Workload, epochs int, seed uint64) {
	sizes := w.Fed.TrainSizes()
	mean := 0
	for _, n := range sizes {
		mean += n
	}
	mean /= len(sizes)
	const batch = 10
	deadline := syshet.DeadlineFor(epochs, mean, batch, 10 /* mid-tier speed */)
	fleet := syshet.NewFleet(syshet.Config{
		Deadline:  deadline,
		JitterStd: 0.3,
		BatchSize: batch,
		Seed:      seed,
	}, sizes)

	fmt.Fprintf(out, "virtual-time profile: %s — %d devices, mean shard %d, E=%d, batch %d\n",
		w.Fed.Name, w.Fed.NumDevices(), mean, epochs, batch)
	fmt.Fprintf(out, "model: %d params, %.1f KB uncompressed per transfer\n",
		w.Model.NumParams(), float64(w.Model.NumParams()*8)/1024)
	fmt.Fprintf(out, "fleet tiers (mid-tier deadline %.1fs): %v\n", deadline, fleet.TierCounts())
	fmt.Fprintf(out, "%10s %8s %18s %18s\n", "tier", "speed", "secs/E-epochs", "budget@deadline")
	for _, tier := range syshet.DefaultTiers() {
		// A representative device of this tier over the mean shard.
		batches := float64((mean + batch - 1) / batch)
		secs := float64(epochs) * batches / tier.Speed
		budget := int(deadline / (batches / tier.Speed))
		if budget > epochs {
			budget = epochs
		}
		fmt.Fprintf(out, "%10s %8.1f %18.1f %18d\n", tier.Name, tier.Speed, secs, budget)
	}
	fmt.Fprintf(out, "emergent straggler rate over 10 rounds at E=%d: %.2f\n",
		epochs, fleet.StragglerRate(10, epochs))
	fmt.Fprintf(out, "suggested ext-vtime knobs: -vtime-deadline %.1f (mid-tier fit), -vtime-round-bytes %d (70%% of a 10-client round)\n",
		deadline, int64(0.7*10*2*float64(w.Model.NumParams()*8)))
}
