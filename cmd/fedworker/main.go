// Command fedworker runs one worker of the fednet distributed runtime.
// Each worker regenerates, from -workload and -scale, only the devices it
// hosts (standing in for the on-device data a real deployment would
// have): devices -index, -index + -workers, … or, under -tier edge, the
// slice of edge -index.
//
// See cmd/fedserver for a full launch recipe.
package main

import (
	"os"

	"fedprox/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command. It lives in internal/cli beside fedserver's, so one
// test process can run a whole deployment.
var run = cli.Worker
