module fedprox/benchmark

go 1.23

require fedprox v0.0.0

replace fedprox => ../
