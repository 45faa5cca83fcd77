// Command fedworker runs one worker of the fednet distributed runtime.
// Each worker regenerates the shared synthetic federated dataset locally
// (standing in for the on-device data a real deployment would have) and
// hosts the shard range assigned by -index of -workers.
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
