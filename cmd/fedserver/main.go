// Command fedserver runs the federated coordinator of the fednet
// distributed runtime: it owns the global model and round schedule and
// never sees training data. All protocol decisions happen in the shared
// core.Coordinator; this process is its TCP driver.
//
// Workers and server must agree on -workload and -scale so every
// process derives the same dataset partition and model shape; the
// server uses the dataset only to size the model and count devices.
//
// Under -async/-async buffered a worker that disconnects or times out is
// evicted and the run continues on the survivors; re-running the same
// fedworker command re-registers its devices and the coordinator
// re-admits them mid-run with freshly synchronized codec link state.
//
//	fedserver -addr :7070 -workload synthetic -rounds 50 -mu 1 &
//	fedworker -addr localhost:7070 -workload synthetic -workers 3 -index 0 &
//	fedworker -addr localhost:7070 -workload synthetic -workers 3 -index 1 &
//	fedworker -addr localhost:7070 -workload synthetic -workers 3 -index 2
//
// The server prints the address it listens on, so -addr 127.0.0.1:0
// picks a free port and names it.
//
// Hierarchical aggregation (-tier) turns the deployment into a process
// tree: the root's "devices" are edge aggregators, each edge owns a
// contiguous slice of the fleet and folds -fanout device replies into
// one upstream reply per round. Every process agrees on -clients and
// -fanout; the tree has clients/fanout edges:
//
//	fedserver -tier root -fanout 4 -clients 8 -addr :7070 &
//	fedserver -tier edge -fanout 4 -clients 8 -index 0 -parent localhost:7070 -addr :7071 &
//	fedserver -tier edge -fanout 4 -clients 8 -index 1 -parent localhost:7070 -addr :7072 &
//	fedworker -tier edge -fanout 4 -workers 2 -index 0 -addr localhost:7071 &
//	fedworker -tier edge -fanout 4 -workers 2 -index 1 -addr localhost:7072
package main

import (
	"os"

	"fedprox/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command. It lives in internal/cli beside fedworker's, so one
// test process can run a whole deployment.
var run = cli.Server
