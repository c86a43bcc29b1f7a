package routing_test

import (
	"testing"

	"ftroute/internal/core"
	"ftroute/internal/gen"
	"ftroute/internal/routing"
)

// TestFailoverMatchesOracleCircularCCC4 pins the reinforced failover
// tables of the CCC(4) circular routing (t=2, the benchmark anchor) to
// the map-based oracles. It lives in the external test package because
// core imports routing.
func TestFailoverMatchesOracleCircularCCC4(t *testing.T) {
	g, err := gen.CCC(4)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := core.Circular(g, core.Options{Tolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	routing.CheckFailoverOracle(t, r, 2, 4)
}
