module edgeauth/benchmark

go 1.21

require edgeauth v0.0.0

replace edgeauth => ../
