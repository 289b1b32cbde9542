package boundary_test

import (
	"testing"

	"edgeauth/internal/analysis/analyzertest"
	"edgeauth/internal/analysis/boundary"
)

func TestBoundary(t *testing.T) {
	analyzertest.Run(t, analyzertest.TestData(t), boundary.Analyzer,
		"edgeauth/internal/vbtree", // a direct import
		"edgeauth/internal/edge",   // an import through a non-serving package
		"edgeauth/internal/wire",   // a clean package
		"edgeauth/cmd/edged",       // a command, exempt
	)
}
