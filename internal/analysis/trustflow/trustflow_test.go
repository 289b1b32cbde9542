package trustflow_test

import (
	"testing"

	"edgeauth/internal/analysis/analyzertest"
	"edgeauth/internal/analysis/trustflow"
)

func TestTrustflow(t *testing.T) {
	analyzertest.Run(t, analyzertest.TestData(t), trustflow.Analyzer, "trustflowtest", "vo")
}
