//go:build race

package israce

// Enabled reports whether the build runs under the race detector.
const Enabled = true
