package core_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"netrecovery/internal/core"
	"netrecovery/internal/wire"
)

// TestZeroSplitDoesNotLivelock replays a grid:5x5 serving-fleet scenario on
// which fast ISP used to spin until its iteration cap: a zero-dx split
// through a node repaired in an earlier iteration counted as progress, so
// every later iteration picked the same candidate again. A zero-dx split now
// counts as progress only when the iteration itself repaired something.
func TestZeroSplitDoesNotLivelock(t *testing.T) {
	raw, err := os.ReadFile("testdata/fleet_livelock.json")
	if err != nil {
		t.Fatal(err)
	}
	var req wire.PlanRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		t.Fatal(err)
	}
	s, err := req.Scenario.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, stats, err := core.Solve(context.Background(), s, core.FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.HitIteration || stats.Iterations > 100 || plan.Notes != "" {
		t.Fatalf("fast ISP ran %d iterations (cap hit: %v, notes %q), want a prompt finish",
			stats.Iterations, stats.HitIteration, plan.Notes)
	}
}
