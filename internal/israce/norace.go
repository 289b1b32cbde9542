//go:build !race

// Package israce tells tests whether they run under the race detector,
// which changes what a run allocates (sync.Pool drops items at random,
// instrumented code moves values to the heap): tests that assert
// allocation budgets skip themselves when it is on.
package israce

// Enabled reports whether the build runs under the race detector.
const Enabled = false
