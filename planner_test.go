package netrecovery_test

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"netrecovery"
)

// testSolver is a custom algorithm registered through the public registry.
// It repairs every broken element (so it is valid on any scenario the other
// facade tests throw at the shared registry) and records the SolverConfig it
// was constructed with, proving the Planner's options are threaded through
// the registry factory rather than a special-case switch.
type testSolver struct {
	cfg netrecovery.SolverConfig
}

func (s *testSolver) Name() string { return testSolverName }

func (s *testSolver) Solve(ctx context.Context, sc *netrecovery.Scenario) (*netrecovery.PlanSpec, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	testSolverMu.Lock()
	testSolverLastCfg = s.cfg
	testSolverMu.Unlock()
	if s.cfg.Progress != nil {
		s.cfg.Progress(netrecovery.ProgressEvent{Solver: testSolverName, Kind: netrecovery.EventIteration})
	}
	return &netrecovery.PlanSpec{
		RepairedNodes: sc.BrokenNodeIDs(),
		RepairedLinks: sc.BrokenLinkIDs(),
	}, nil
}

const testSolverName = "TEST-ALL"

var (
	testSolverMu      sync.Mutex
	testSolverLastCfg netrecovery.SolverConfig
)

func init() {
	netrecovery.RegisterSolverWithInfo(netrecovery.SolverInfo{
		Name:        testSolverName,
		Description: "test solver repairing every broken element",
		Scalability: "any size",
	}, func(cfg netrecovery.SolverConfig) netrecovery.Solver {
		return &testSolver{cfg: cfg}
	})
}

// destroyedGrid returns a snapshot of a fully destroyed 3x3 grid with one
// corner-to-corner demand.
func destroyedGrid(t *testing.T) *netrecovery.Scenario {
	t.Helper()
	net, err := netrecovery.Grid(3, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddDemandByID(0, 8, 10); err != nil {
		t.Fatal(err)
	}
	net.ApplyCompleteDestruction()
	return net.Snapshot()
}

func TestPlannerDefaultsToISP(t *testing.T) {
	plan, err := netrecovery.NewPlanner().Plan(context.Background(), destroyedGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm() != string(netrecovery.ISP) {
		t.Errorf("default algorithm = %q, want ISP", plan.Algorithm())
	}
	if err := plan.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
	if plan.SatisfiedDemandRatio() < 1-1e-9 {
		t.Errorf("satisfied = %f, want 1", plan.SatisfiedDemandRatio())
	}
	if plan.Stages() != nil {
		t.Errorf("Stages = %v without WithSchedule, want nil", plan.Stages())
	}
}

func TestPlannerRejectsUnknownAlgorithmAndNilScenario(t *testing.T) {
	if _, err := netrecovery.NewPlanner(netrecovery.WithAlgorithm("bogus")).Plan(context.Background(), destroyedGrid(t)); err == nil {
		t.Error("expected error for unknown algorithm")
	}
	if _, err := netrecovery.NewPlanner().Plan(context.Background(), nil); err == nil {
		t.Error("expected error for nil scenario")
	}
}

func TestPlannerHonoursContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := netrecovery.NewPlanner().Plan(ctx, destroyedGrid(t)); err == nil {
		t.Error("expected error from a cancelled context")
	}
}

// TestPlannerWithParallelismPlansAreIdentical pins the facade-level
// determinism guarantee: WithParallelism is a latency knob, not a quality
// knob — OPT plans are identical for every worker count, and the option is
// threaded through to custom solvers as SolverConfig.Workers.
func TestPlannerWithParallelismPlansAreIdentical(t *testing.T) {
	sc := destroyedGrid(t)
	type fp struct {
		nodes, links []int
		cost         float64
		optimal      bool
	}
	solve := func(workers int) fp {
		planner := netrecovery.NewPlanner(
			netrecovery.WithAlgorithm(netrecovery.OPT),
			netrecovery.WithOPTBudget(time.Minute, 20000),
			netrecovery.WithParallelism(workers),
		)
		plan, err := planner.Plan(context.Background(), sc)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if err := plan.Verify(); err != nil {
			t.Fatalf("workers %d: verify: %v", workers, err)
		}
		return fp{plan.RepairedNodes(), plan.RepairedLinks(), plan.Cost(), plan.Optimal()}
	}
	ref := solve(1)
	for _, workers := range []int{2, 4} {
		got := solve(workers)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers %d: plan diverged\n got %+v\nwant %+v", workers, got, ref)
		}
	}

	// Custom solvers receive the worker budget through SolverConfig.
	planner := netrecovery.NewPlanner(
		netrecovery.WithAlgorithm(testSolverName),
		netrecovery.WithParallelism(3),
	)
	if _, err := planner.Plan(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	testSolverMu.Lock()
	got := testSolverLastCfg.Workers
	testSolverMu.Unlock()
	if got != 3 {
		t.Errorf("custom solver saw Workers = %d, want 3", got)
	}
}

func TestPlannerWithScheduleComputesStages(t *testing.T) {
	planner := netrecovery.NewPlanner(
		netrecovery.WithAlgorithm(netrecovery.ISP),
		netrecovery.WithSchedule(3),
	)
	plan, err := planner.Plan(context.Background(), destroyedGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	stages := plan.Stages()
	if len(stages) == 0 {
		t.Fatal("WithSchedule produced no stages")
	}
	scheduled := 0
	for _, stage := range stages {
		if stage.Cost > 3+1e-9 {
			t.Errorf("stage %d cost %f exceeds budget", stage.Index, stage.Cost)
		}
		scheduled += len(stage.RepairedNodes) + len(stage.RepairedLinks)
	}
	_, _, total := plan.Repairs()
	if scheduled != total {
		t.Errorf("scheduled %d elements, plan has %d", scheduled, total)
	}
	if final := stages[len(stages)-1].SatisfiedDemandRatio; final < 1-1e-9 {
		t.Errorf("final stage ratio = %f, want 1", final)
	}

	// Mutating the returned slice must not affect the plan.
	stages[0].Cost = -1
	if plan.Stages()[0].Cost == -1 {
		t.Error("Stages() aliases the plan's internal timeline")
	}

	// A non-positive budget is a configuration error.
	bad := netrecovery.NewPlanner(netrecovery.WithAlgorithm(netrecovery.ISP), netrecovery.WithSchedule(0))
	if _, err := bad.Plan(context.Background(), destroyedGrid(t)); err == nil {
		t.Error("WithSchedule(0) must surface the stage-budget validation error")
	}
}

func TestPlannerStreamsISPProgress(t *testing.T) {
	var mu sync.Mutex
	var events []netrecovery.ProgressEvent
	planner := netrecovery.NewPlanner(
		netrecovery.WithAlgorithm(netrecovery.ISP),
		netrecovery.WithProgress(func(ev netrecovery.ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}),
	)
	if _, err := planner.Plan(context.Background(), destroyedGrid(t)); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events streamed")
	}
	for i, ev := range events {
		if ev.Solver != "ISP" || ev.Kind != netrecovery.EventIteration {
			t.Fatalf("event %d = %+v, want ISP iteration", i, ev)
		}
		if ev.Iteration != i {
			t.Errorf("event %d carries iteration %d", i, ev.Iteration)
		}
	}
}

func TestPlannerStreamsOPTProgress(t *testing.T) {
	var events []netrecovery.ProgressEvent
	planner := netrecovery.NewPlanner(
		netrecovery.WithAlgorithm(netrecovery.OPT),
		netrecovery.WithOPTBudget(30*time.Second, 4000),
		netrecovery.WithProgress(func(ev netrecovery.ProgressEvent) { events = append(events, ev) }),
	)
	plan, err := planner.Plan(context.Background(), destroyedGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Optimal() {
		t.Fatalf("OPT did not close the gap on a 3x3 grid: %s", plan.Summary())
	}
	for _, ev := range events {
		if ev.Solver != "OPT" {
			t.Fatalf("unexpected event %+v", ev)
		}
		if ev.Kind != netrecovery.EventIncumbent && ev.Kind != netrecovery.EventBound {
			t.Fatalf("unexpected OPT event kind %q", ev.Kind)
		}
		if ev.Kind == netrecovery.EventIncumbent && math.IsInf(ev.Incumbent, 0) {
			t.Errorf("incumbent event with infinite objective: %+v", ev)
		}
	}
}

// TestCustomSolverThroughRegistry is the acceptance test for the public
// registry: a test-registered solver must be constructible everywhere an
// algorithm name is accepted — Planner and the sweep engine — and must
// receive the Planner's options through its factory.
func TestCustomSolverThroughRegistry(t *testing.T) {
	found := false
	for _, info := range netrecovery.Solvers() {
		if info.Name == testSolverName {
			found = true
			if info.Description != "test solver repairing every broken element" || info.Scalability != "any size" {
				t.Errorf("custom solver metadata not honoured: %+v", info)
			}
		}
	}
	if !found {
		t.Fatalf("Solvers() does not list %s", testSolverName)
	}

	sc := destroyedGrid(t)
	var progressed bool
	planner := netrecovery.NewPlanner(
		netrecovery.WithAlgorithm(netrecovery.Algorithm(testSolverName)),
		netrecovery.WithFastISP(),
		netrecovery.WithOPTBudget(7*time.Second, 42),
		netrecovery.WithProgress(func(netrecovery.ProgressEvent) { progressed = true }),
	)
	plan, err := planner.Plan(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm() != testSolverName {
		t.Errorf("plan algorithm = %q", plan.Algorithm())
	}
	if err := plan.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
	broken := sc.Broken()
	if nodes, links, _ := plan.Repairs(); nodes != broken.BrokenNodes || links != broken.BrokenEdges {
		t.Errorf("repairs = (%d, %d), want everything (%d, %d)", nodes, links, broken.BrokenNodes, broken.BrokenEdges)
	}
	testSolverMu.Lock()
	cfg := testSolverLastCfg
	testSolverMu.Unlock()
	if !cfg.Fast || cfg.OPTTimeLimit != 7*time.Second || cfg.OPTMaxNodes != 42 || cfg.Progress == nil {
		t.Errorf("factory config = %+v, want the Planner options threaded through", cfg)
	}
	if !progressed {
		t.Error("custom solver's progress events did not reach the Planner callback")
	}

	// The sweep engine constructs it through the same registry too.
	report, err := netrecovery.Sweep(context.Background(), netrecovery.SweepSpec{
		Name:        "custom",
		Topologies:  []netrecovery.SweepTopology{{Kind: netrecovery.SweepTopoGrid, Rows: 3, Cols: 3}},
		Disruptions: []netrecovery.SweepDisruption{{Kind: netrecovery.SweepDisruptComplete}},
		Demands:     []netrecovery.SweepDemand{{Pairs: 1, FlowPerPair: 5}},
		Algorithms:  []string{testSolverName},
		Seeds:       netrecovery.SweepSeeds(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failures != 0 {
		t.Fatalf("sweep with custom solver had %d failures", report.Failures)
	}
}

func TestSolversMetadata(t *testing.T) {
	infos := netrecovery.Solvers()
	if len(infos) < 6 {
		t.Fatalf("Solvers() = %d entries, want at least the six built-ins", len(infos))
	}
	exact := 0
	for _, info := range infos {
		if info.Name == "" || info.Description == "" || info.Scalability == "" {
			t.Errorf("incomplete metadata: %+v", info)
		}
		if info.Exact {
			exact++
		}
	}
	if exact == 0 {
		t.Error("no solver marked exact; OPT should be")
	}
	if len(infos) != len(netrecovery.Algorithms()) {
		t.Errorf("Solvers() has %d entries, Algorithms() %d", len(infos), len(netrecovery.Algorithms()))
	}
}

func TestScenarioSnapshotIsDetached(t *testing.T) {
	net, err := netrecovery.Grid(3, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddDemandByID(0, 8, 10); err != nil {
		t.Fatal(err)
	}
	net.BreakNode(4)
	sc := net.Snapshot()
	if got := sc.Broken(); got.BrokenNodes != 1 {
		t.Fatalf("snapshot broken = %+v", got)
	}

	// Mutating the network after the snapshot must not leak into it.
	net.BreakNode(1)
	net.BreakLink(0)
	if err := net.AddDemandByID(2, 6, 5); err != nil {
		t.Fatal(err)
	}
	if got := sc.Broken(); got.BrokenNodes != 1 || got.BrokenEdges != 0 {
		t.Errorf("snapshot changed after network mutation: %+v", got)
	}
	if sc.TotalDemand() != 10 {
		t.Errorf("snapshot demand = %f, want 10", sc.TotalDemand())
	}
	if got := net.Broken(); got.BrokenNodes != 2 || got.BrokenEdges != 1 {
		t.Errorf("network broken = %+v", got)
	}
	if ids := sc.BrokenNodeIDs(); len(ids) != 1 || ids[0] != 4 {
		t.Errorf("BrokenNodeIDs = %v, want [4]", ids)
	}
}
