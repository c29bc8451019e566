package netrecovery_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"netrecovery"
)

// induceDegradeFailure toggles failingDegradeSolver. Registration is
// global and permanent, so the solver is registered once, and other tests
// that enumerate Algorithms() (the shared-scenario race test, the
// cross-algorithm invariants) solve with it too; outside the degrade tests
// it answers a valid empty plan.
var induceDegradeFailure atomic.Bool

func init() {
	netrecovery.RegisterSolver("degrade-fail-test", func(netrecovery.SolverConfig) netrecovery.Solver {
		return failingDegradeSolver{}
	})
}

func forceDegradeFailure(t *testing.T) {
	t.Helper()
	induceDegradeFailure.Store(true)
	t.Cleanup(func() { induceDegradeFailure.Store(false) })
}

// failingDegradeSolver errors while induceDegradeFailure is set, forcing
// the WithDeadline chain past its primary stage.
type failingDegradeSolver struct{}

func (failingDegradeSolver) Name() string { return "degrade-fail-test" }

func (failingDegradeSolver) Solve(ctx context.Context, sc *netrecovery.Scenario) (*netrecovery.PlanSpec, error) {
	if induceDegradeFailure.Load() {
		return nil, errors.New("degrade-fail-test: induced failure")
	}
	return &netrecovery.PlanSpec{}, nil
}

// TestWithDeadlineFallsBackToISP: when the requested algorithm fails under
// a deadline, Plan still answers — served by the fast-ISP fallback stage —
// and Degradation reports how the budget was spent.
func TestWithDeadlineFallsBackToISP(t *testing.T) {
	forceDegradeFailure(t)
	planner := netrecovery.NewPlanner(
		netrecovery.WithAlgorithm("degrade-fail-test"),
		netrecovery.WithDeadline(2*time.Second),
	)
	net := cacheTestNetwork(t)
	plan, err := planner.Plan(context.Background(), net.Snapshot())
	if err != nil {
		t.Fatalf("Plan under deadline: %v", err)
	}
	deg := plan.Degradation()
	if deg == nil {
		t.Fatal("Degradation() = nil for a deadline Planner")
	}
	if deg.Level != "fallback" || deg.ServedBy != "fallback_isp" {
		t.Fatalf("degradation = %+v, want fallback via fallback_isp", deg)
	}
	if len(deg.Stages) < 2 || deg.Stages[0].Stage != "primary" || deg.Stages[0].Outcome != "error" {
		t.Fatalf("stages = %+v", deg.Stages)
	}
	if deg.Stages[0].Err == "" {
		t.Fatal("failed primary stage must carry its error")
	}
	if plan.SatisfiedDemandRatio() <= 0 {
		t.Fatalf("fallback plan satisfies no demand: %+v", plan)
	}
}

// TestWithDeadlinePrimaryServes: a healthy primary stage answers with
// Level "none", and a Planner without a deadline reports no degradation.
func TestWithDeadlinePrimaryServes(t *testing.T) {
	net := cacheTestNetwork(t)

	withDeadline := netrecovery.NewPlanner(
		netrecovery.WithFastISP(),
		netrecovery.WithDeadline(5*time.Second),
	)
	plan, err := withDeadline.Plan(context.Background(), net.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	deg := plan.Degradation()
	if deg == nil || deg.Level != "none" || deg.ServedBy != "primary" {
		t.Fatalf("degradation = %+v, want primary/none", deg)
	}

	plain, err := netrecovery.NewPlanner(netrecovery.WithFastISP()).Plan(context.Background(), net.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Degradation() != nil {
		t.Fatalf("no-deadline Planner reported degradation: %+v", plain.Degradation())
	}
}

// TestWithDeadlineStaleCacheServes: when every solver stage fails, a
// previously cached (even expired) plan for the same scenario is served at
// the stale level.
func TestWithDeadlineStaleCacheServes(t *testing.T) {
	cache := netrecovery.NewPlanCache(netrecovery.PlanCacheConfig{TTL: time.Nanosecond})
	net := cacheTestNetwork(t)

	// Seed the cache through the fallback configuration (fast ISP), then
	// let the entry expire.
	seed := netrecovery.NewPlanner(netrecovery.WithFastISP(), netrecovery.WithCache(cache))
	if _, err := seed.Plan(context.Background(), net.Snapshot()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)

	forceDegradeFailure(t)
	// A 1ns deadline times out both solver stages before they can answer;
	// the stale-cache stage is Free, so it still runs and serves the
	// expired fallback-key entry seeded above.
	planner := netrecovery.NewPlanner(
		netrecovery.WithAlgorithm("degrade-fail-test"),
		netrecovery.WithFastISP(),
		netrecovery.WithCache(cache),
		netrecovery.WithDeadline(time.Nanosecond),
	)
	plan, err := planner.Plan(context.Background(), net.Snapshot())
	if err != nil {
		t.Fatalf("stale chain: %v", err)
	}
	deg := plan.Degradation()
	if deg == nil || deg.Level != "stale" || deg.ServedBy != "stale_cache" {
		t.Fatalf("degradation = %+v, want stale via stale_cache", deg)
	}
}
