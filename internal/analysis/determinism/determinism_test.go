package determinism_test

import (
	"testing"

	"dlpt/internal/analysis/analysistest"
	"dlpt/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, ".", "core", determinism.Analyzer)
}

func TestDeterminismTransportCodecFiles(t *testing.T) {
	analysistest.Run(t, ".", "transport", determinism.Analyzer)
}
