// Command vetauth checks this module's domain invariants: signature
// verification before trust (trustflow), snapshot pin/release pairing
// (pinpair), no RSA signing under shard locks and no commit-lock order
// inversions (locksign), context plumbing discipline (ctxflow), and a
// serving path that imports only the standard library and itself, never
// the Naive baseline, the cost model, the experiments, the adversary or
// the generators (boundary).
//
// It runs only as a vet tool, so test files and build-tag variants are
// covered:
//
//	go build -o bin/vetauth ./cmd/vetauth
//	go vet -vettool=$PWD/bin/vetauth ./...
//
// Run by hand without the package config go vet passes, it prints this
// usage and exits 2. Findings exit nonzero. Intentional exceptions are annotated in the
// source with //vetauth:ignore <analyzer> <reason>.
package main

import (
	"edgeauth/internal/analysis/boundary"
	"edgeauth/internal/analysis/ctxflow"
	"edgeauth/internal/analysis/driver"
	"edgeauth/internal/analysis/locksign"
	"edgeauth/internal/analysis/pinpair"
	"edgeauth/internal/analysis/trustflow"
)

func main() {
	driver.Main(
		trustflow.Analyzer,
		pinpair.Analyzer,
		locksign.Analyzer,
		ctxflow.Analyzer,
		boundary.Analyzer,
	)
}
