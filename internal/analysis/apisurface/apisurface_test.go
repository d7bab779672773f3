package apisurface_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/apisurface"
)

func TestAPISurface(t *testing.T) {
	analysistest.Run(t, apisurface.Analyzer, "apileak")
}

// TestNetbridgeClean pins the newest public package to the surface
// contract: netbridge exports only stdlib and repro/censor types.
func TestNetbridgeClean(t *testing.T) {
	analysistest.RunClean(t, apisurface.Analyzer, "../../../netbridge", "repro/netbridge")
}

// TestScenarioClean pins the world-building schema to the surface
// contract: external callers write specs with no internal type in sight.
func TestScenarioClean(t *testing.T) {
	analysistest.RunClean(t, apisurface.Analyzer, "../../../scenario", "repro/scenario")
}
