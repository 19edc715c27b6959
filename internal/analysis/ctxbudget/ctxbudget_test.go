package ctxbudget

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

const providerFixture = "repro/internal/analysis/testdata/src/ctxtest"

func TestProviderRules(t *testing.T) {
	Providers[providerFixture] = true
	defer delete(Providers, providerFixture)
	analysistest.Run(t, "../testdata/src/ctxtest", []*analysis.Analyzer{Analyzer}, nil)
}

func TestRoleOf(t *testing.T) {
	if RoleOf("repro/internal/bipartite") != RoleProvider {
		t.Errorf("bipartite should be a provider")
	}
	if RoleOf("repro/internal/dataset") != RoleNone {
		t.Errorf("dataset should have no role")
	}
}
