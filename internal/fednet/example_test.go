package fednet_test

import (
	"errors"
	"fmt"
	"net"

	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/fednet"
	"fedprox/internal/model/linear"
)

// ExampleServer_RunWithListener runs FedProx over loopback TCP, three workers
// holding the data: the trajectory is the simulator's, bit for bit.
func ExampleServer_RunWithListener() {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.25))
	mdl := linear.ForDataset(fed)
	cfg := core.FedProx(30, 10, 20, 0.01, 1)
	cfg.StragglerFraction, cfg.EvalEvery = 0.5, 10
	srv, err := fednet.NewServer(mdl, fednet.ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	const workers = 3
	done := make(chan error, workers)
	for i, n := 0, fed.NumDevices(); i < workers; i++ {
		w := fednet.NewWorker(mdl, fed.Shards[i*n/workers:(i+1)*n/workers], nil)
		go func() { done <- w.Run(ln.Addr().String()) }()
	}
	hist, err := srv.RunWithListener(ln)
	for range workers {
		err = errors.Join(err, <-done)
	}
	sim, simErr := core.Run(mdl, fed, cfg)
	if err = errors.Join(err, simErr); err != nil {
		panic(err)
	}
	fmt.Println(hist)
	a, b := sim.Final().TrainLoss, hist.Final().TrainLoss
	fmt.Printf("simulator final loss %.10f, distributed final loss %.10f, bit-identical: %v\n", a, b, a == b)
	// Output:
	// FedProx(mu=1) [fednet]
	//  round   train-loss  test-acc     grad-var       mu
	//      0       2.3026    0.0838            -        1
	//     10       1.2098    0.6890            -        1
	//     20       0.8361    0.7454            -        1
	//     30       0.6220    0.8354            -        1
	//
	// simulator final loss 0.6220347109, distributed final loss 0.6220347109, bit-identical: true
}
