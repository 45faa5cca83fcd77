package core_test

import (
	"fmt"

	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
)

// ExampleRun is Figure 1's headline in miniature: on Synthetic(1,1) with
// 90% stragglers, FedAvg drops them, FedProx (μ = 1) folds their partial
// work, and FedProx ends at the lower loss.
func ExampleRun() {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.25))
	mdl := linear.ForDataset(fed)
	for _, cfg := range []core.Config{core.FedAvg(60, 10, 20, 0.01), core.FedProx(60, 10, 20, 0.01, 1)} {
		cfg.StragglerFraction, cfg.EvalEvery = 0.9, 10
		hist, err := core.Run(mdl, fed, cfg)
		if err != nil {
			panic(err)
		}
		fmt.Println(hist)
	}
	// Output:
	// FedAvg
	//  round   train-loss  test-acc     grad-var       mu
	//      0       2.3026    0.0838            -        0
	//     10       2.1371    0.3506            -        0
	//     20       3.0280    0.4649            -        0
	//     30       2.2248    0.5869            -        0
	//     40       2.1812    0.6052            -        0
	//     50       1.8400    0.6982            -        0
	//     60       1.4651    0.7271            -        0
	//
	// FedProx(mu=1)
	//  round   train-loss  test-acc     grad-var       mu
	//      0       2.3026    0.0838            -        1
	//     10       1.2137    0.7104            -        1
	//     20       0.8014    0.7912            -        1
	//     30       0.6220    0.8171            -        1
	//     40       0.5716    0.8262            -        1
	//     50       0.5059    0.8415            -        1
	//     60       0.4600    0.8582            -        1
}
