package heuristics

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"netrecovery/internal/core"
	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

// diamondScenario returns a fully destroyed 4-node diamond with a single
// demand 0->3 of the given flow. Each route has capacity 10.
func diamondScenario(t *testing.T, flowUnits float64) *scenario.Scenario {
	t.Helper()
	g := graph.New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode("", float64(i), float64(i%2), 1)
	}
	g.MustAddEdge(0, 1, 10, 1)
	g.MustAddEdge(1, 3, 10, 1)
	g.MustAddEdge(0, 2, 10, 1)
	g.MustAddEdge(2, 3, 10, 1)
	dg := demand.New()
	dg.MustAdd(0, 3, flowUnits)
	d := disruption.Complete(g)
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}

// gridScenario returns a destroyed 3x3 grid with two corner demands.
func gridScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	g, err := topology.Grid(3, 3, topology.DefaultConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	dg := demand.New()
	dg.MustAdd(0, 8, 10)
	dg.MustAdd(2, 6, 10)
	d := disruption.Complete(g)
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}

func TestNewAndNames(t *testing.T) {
	for _, name := range Names() {
		solver, err := New(name, Params{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if solver.Name() != name {
			t.Errorf("Name() = %q, want %q", solver.Name(), name)
		}
	}
	if _, err := New("nope", Params{}); err == nil {
		t.Error("expected error for unknown solver")
	}
}

// TestInfosMetadata checks that every registered solver carries metadata and
// that exactly OPT is marked exact among the built-ins.
func TestInfosMetadata(t *testing.T) {
	infos := Infos()
	if len(infos) != len(Names()) {
		t.Fatalf("Infos() has %d entries, Names() %d", len(infos), len(Names()))
	}
	for i, info := range infos {
		if info.Name != Names()[i] {
			t.Errorf("Infos()[%d].Name = %q, want %q", i, info.Name, Names()[i])
		}
		if info.Description == "" || info.Scalability == "" {
			t.Errorf("%s: empty metadata: %+v", info.Name, info)
		}
		if info.Exact != (info.Name == OptName) {
			t.Errorf("%s: Exact = %v", info.Name, info.Exact)
		}
	}
}

// TestParamsThreadedThroughRegistry checks that the factory params reach the
// constructed solvers: Fast selects ISP's greedy split mode and the OPT
// budget lands on the Opt solver.
func TestParamsThreadedThroughRegistry(t *testing.T) {
	fast, err := New(core.SolverName, Params{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := Unwrap(fast).(*ISPSolver).Options.SplitMode; got != core.SplitGreedy {
		t.Errorf("Fast ISP split mode = %v, want SplitGreedy", got)
	}
	slow, err := New(core.SolverName, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Unwrap(slow).(*ISPSolver).Options.SplitMode; got != core.SplitMode(0) {
		t.Errorf("default ISP split mode = %v, want zero (exact)", got)
	}
	opt, err := New(OptName, Params{OPTTimeLimit: 5 * time.Second, OPTMaxNodes: 77})
	if err != nil {
		t.Fatal(err)
	}
	if o := Unwrap(opt).(*Opt); o.TimeLimit != 5*time.Second || o.MaxNodes != 77 {
		t.Errorf("OPT budget = (%v, %d), want (5s, 77)", o.TimeLimit, o.MaxNodes)
	}
}

// TestProgressEvents checks that ISP streams iteration events and OPT
// streams incumbent/bound events through the registry's Progress param.
func TestProgressEvents(t *testing.T) {
	var events []ProgressEvent
	record := func(ev ProgressEvent) { events = append(events, ev) }

	isp, err := New(core.SolverName, Params{Progress: record})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := isp.Solve(context.Background(), gridScenario(t)); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("ISP emitted no progress events")
	}
	for i, ev := range events {
		if ev.Solver != core.SolverName || ev.Kind != EventIteration {
			t.Fatalf("event %d = %+v, want an ISP iteration event", i, ev)
		}
		if ev.Iteration != i {
			t.Errorf("event %d has iteration %d", i, ev.Iteration)
		}
	}

	events = nil
	opt, err := New(OptName, Params{Progress: record, OPTTimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Disable the warm start so the search itself must find an incumbent.
	Unwrap(opt).(*Opt).DisableWarmStart = true
	if _, err := opt.Solve(context.Background(), diamondScenario(t, 8)); err != nil {
		t.Fatal(err)
	}
	sawIncumbent := false
	for _, ev := range events {
		if ev.Solver != OptName || (ev.Kind != EventIncumbent && ev.Kind != EventBound) {
			t.Fatalf("event %+v, want an OPT incumbent/bound event", ev)
		}
		if ev.Kind == EventIncumbent {
			sawIncumbent = true
			if ev.Incumbent <= 0 {
				t.Errorf("incumbent event with objective %f", ev.Incumbent)
			}
		}
	}
	if !sawIncumbent {
		t.Error("OPT emitted no incumbent event")
	}
}

func TestAllRepairsEverything(t *testing.T) {
	s := diamondScenario(t, 8)
	plan, err := (&All{}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	nodes, edges, _ := plan.NumRepairs()
	if nodes != 4 || edges != 4 {
		t.Errorf("ALL repaired %d nodes %d edges, want 4 and 4", nodes, edges)
	}
	if plan.SatisfactionRatio() < 1-1e-9 {
		t.Errorf("ALL satisfaction = %f, want 1", plan.SatisfactionRatio())
	}
	if err := scenario.VerifyPlan(s, plan); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestSRTRepairsOneRoute(t *testing.T) {
	s := diamondScenario(t, 8)
	plan, err := (&SRT{}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	_, edges, _ := plan.NumRepairs()
	if edges != 2 {
		t.Errorf("SRT repaired %d edges, want 2 (one route)", edges)
	}
	if plan.SatisfactionRatio() < 1-1e-9 {
		t.Errorf("SRT satisfaction = %f, want 1 on a single demand", plan.SatisfactionRatio())
	}
	if err := scenario.VerifyPlan(s, plan); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestSRTDemandLossUnderSharing(t *testing.T) {
	// Two demands of 15 each between the same endpoints of the diamond
	// (total 30 > 20 network capacity, but each fits alone on... actually
	// each needs 15 > 10 per route so SRT repairs both routes per demand).
	// Build instead a path topology where sharing causes loss: two demands
	// (0->2 and 1->2) of 8 units share edge 1-2 of capacity 10.
	g := graph.New(3, 2)
	for i := 0; i < 3; i++ {
		g.AddNode("", float64(i), 0, 1)
	}
	g.MustAddEdge(0, 1, 10, 1)
	g.MustAddEdge(1, 2, 10, 1)
	dg := demand.New()
	dg.MustAdd(0, 2, 8)
	dg.MustAdd(1, 2, 8)
	d := disruption.Complete(g)
	s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
	plan, err := (&SRT{}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SatisfactionRatio() >= 1 {
		t.Errorf("SRT should lose demand when shared paths saturate, got ratio %f", plan.SatisfactionRatio())
	}
	if err := scenario.VerifyPlan(s, plan); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestGreedyCommitDiamond(t *testing.T) {
	s := diamondScenario(t, 8)
	plan, err := (&GreedyCommit{}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SatisfactionRatio() < 1-1e-9 {
		t.Errorf("GRD-COM satisfaction = %f, want 1", plan.SatisfactionRatio())
	}
	_, edges, _ := plan.NumRepairs()
	if edges > 4 {
		t.Errorf("GRD-COM repaired %d edges, want <= 4", edges)
	}
	if err := scenario.VerifyPlan(s, plan); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestGreedyNoCommitDiamond(t *testing.T) {
	s := diamondScenario(t, 8)
	plan, err := (&GreedyNoCommit{}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SatisfactionRatio() < 1-1e-9 {
		t.Errorf("GRD-NC satisfaction = %f, want 1", plan.SatisfactionRatio())
	}
	if err := scenario.VerifyPlan(s, plan); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestGreedyNoCommitNoRepairsWhenIntact(t *testing.T) {
	g, err := topology.Grid(3, 3, topology.DefaultConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	dg := demand.New()
	dg.MustAdd(0, 8, 10)
	s := &scenario.Scenario{
		Supply: g, Demand: dg,
		BrokenNodes: map[graph.NodeID]bool{},
		BrokenEdges: map[graph.EdgeID]bool{},
	}
	plan, err := (&GreedyNoCommit{}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, total := plan.NumRepairs(); total != 0 {
		t.Errorf("repairs = %d, want 0 on an intact network", total)
	}
	if plan.SatisfactionRatio() < 1-1e-9 {
		t.Error("intact network must satisfy the demand")
	}
}

func TestOptDiamondIsOptimal(t *testing.T) {
	// The optimum for 8 units over the destroyed diamond is one route:
	// 3 nodes + 2 edges = cost 5.
	s := diamondScenario(t, 8)
	plan, err := (&Opt{MaxNodes: 2000, TimeLimit: 30 * time.Second}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if cost := plan.RepairCost(s); cost > 5+1e-6 {
		t.Errorf("OPT cost = %f, want 5", cost)
	}
	if plan.SatisfactionRatio() < 1-1e-9 {
		t.Errorf("OPT satisfaction = %f, want 1", plan.SatisfactionRatio())
	}
	if err := scenario.VerifyPlan(s, plan); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestOptNeverWorseThanISP(t *testing.T) {
	s := gridScenario(t)
	ispPlan, err := (&ISPSolver{}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	optPlan, err := (&Opt{MaxNodes: 300, TimeLimit: 20 * time.Second}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if optPlan.RepairCost(s) > ispPlan.RepairCost(s)+1e-6 {
		t.Errorf("OPT cost %f exceeds ISP cost %f", optPlan.RepairCost(s), ispPlan.RepairCost(s))
	}
	if err := scenario.VerifyPlan(s, optPlan); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestOptInfeasibleDemand(t *testing.T) {
	s := diamondScenario(t, 100) // exceeds total capacity 20
	plan, err := (&Opt{MaxNodes: 50, TimeLimit: 10 * time.Second}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SatisfactionRatio() >= 1 {
		t.Error("demand 100 cannot be fully satisfied")
	}
	if _, _, total := plan.NumRepairs(); total == 0 {
		t.Error("infeasible fallback should still repair elements")
	}
}

func TestOptEmptyDemand(t *testing.T) {
	g, err := topology.Grid(2, 2, topology.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	s := &scenario.Scenario{
		Supply: g, Demand: demand.New(),
		BrokenNodes: map[graph.NodeID]bool{0: true},
		BrokenEdges: map[graph.EdgeID]bool{},
	}
	plan, err := (&Opt{}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, total := plan.NumRepairs(); total != 0 {
		t.Errorf("no demand means no repairs, got %d", total)
	}
	if !plan.Optimal {
		t.Error("empty problem is trivially optimal")
	}
}

func TestOptColdStart(t *testing.T) {
	s := diamondScenario(t, 8)
	plan, err := (&Opt{MaxNodes: 2000, TimeLimit: 30 * time.Second, DisableWarmStart: true}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if cost := plan.RepairCost(s); cost > 5+1e-6 {
		t.Errorf("cold-start OPT cost = %f, want 5", cost)
	}
}

func TestSolverOrderingOnGrid(t *testing.T) {
	// The qualitative ordering the paper reports: OPT <= ISP <= greedy
	// heuristics <= ALL in number of repairs, with ISP and GRD-NC at 100%
	// satisfaction.
	s := gridScenario(t)
	results := make(map[string]*scenario.Plan)
	solvers := []Solver{
		&ISPSolver{},
		&SRT{},
		&GreedyCommit{},
		&GreedyNoCommit{},
		&All{},
		&Opt{MaxNodes: 300, TimeLimit: 20 * time.Second},
	}
	for _, solver := range solvers {
		plan, err := solver.Solve(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if err := scenario.VerifyPlan(s, plan); err != nil {
			t.Fatalf("%s produced an invalid plan: %v", solver.Name(), err)
		}
		results[solver.Name()] = plan
	}
	_, _, ispTotal := results[core.SolverName].NumRepairs()
	_, _, optTotal := results[OptName].NumRepairs()
	_, _, allTotal := results[AllName].NumRepairs()
	if optTotal > ispTotal {
		t.Errorf("OPT repairs %d > ISP repairs %d", optTotal, ispTotal)
	}
	if ispTotal > allTotal {
		t.Errorf("ISP repairs %d > ALL repairs %d", ispTotal, allTotal)
	}
	if results[core.SolverName].SatisfactionRatio() < 1-1e-9 {
		t.Error("ISP must not lose demand")
	}
	if results[GreedyNoCommitName].SatisfactionRatio() < 1-1e-9 {
		t.Error("GRD-NC must not lose demand when the intact network could route it")
	}
}

func TestBellCanadaGeographicAllSolvers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping Bell-Canada end-to-end comparison in short mode")
	}
	g := topology.BellCanada()
	rng := rand.New(rand.NewSource(11))
	d := disruption.Geographic(g, disruption.GeographicConfig{Auto: true, Variance: 30, PeakProbability: 1}, rng)
	dg, err := demand.GenerateFarApartPairs(g, 3, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}

	ispPlan, err := (&ISPSolver{}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if ispPlan.SatisfactionRatio() < 1-1e-9 {
		t.Errorf("ISP satisfaction = %f, want 1", ispPlan.SatisfactionRatio())
	}
	srtPlan, err := (&SRT{}).Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ispTotal := ispPlan.NumRepairs()
	if ispTotal > d.Total() {
		t.Errorf("ISP repairs %d exceed broken elements %d", ispTotal, d.Total())
	}
	for name, plan := range map[string]*scenario.Plan{"ISP": ispPlan, "SRT": srtPlan} {
		if err := scenario.VerifyPlan(s, plan); err != nil {
			t.Errorf("%s verify: %v", name, err)
		}
	}
}

// TestISPSolvesSharedScenario pins that ISP reads its scenario without
// copying or writing it: fast and exact solves, cold and through a session,
// leave the fingerprint unchanged, and solves of one shared scenario from
// several goroutines at once agree with the sequential answer (-race checks
// them for writes).
func TestISPSolvesSharedScenario(t *testing.T) {
	ctx := context.Background()
	s := invariantScenario(t, "bell-canada", 1)
	before := s.Fingerprint()
	solvers := func() []Solver {
		return []Solver{
			&ISPSolver{}, &ISPSolver{Options: core.FastOptions()},
			NewISPSession(Params{}, core.NewSession()), NewISPSession(Params{Fast: true}, core.NewSession()),
		}
	}
	want := make([]*scenario.Plan, 0, 4)
	for _, solver := range solvers() {
		plan, err := solver.Solve(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if s.Fingerprint() != before {
			t.Fatalf("%T changed the scenario it solved", solver)
		}
		want = append(want, plan)
	}

	errs := make(chan error, 2*len(want))
	var wg sync.WaitGroup
	for range 2 {
		for i, solver := range solvers() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				plan, err := solver.Solve(ctx, s)
				if err == nil && (plan.RepairCost(s) != want[i].RepairCost(s) || !reflect.DeepEqual(plan.Routing, want[i].Routing)) {
					err = fmt.Errorf("%T: a concurrent solve answered differently", solver)
				}
				errs <- err
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if s.Fingerprint() != before {
		t.Fatal("concurrent solves changed the scenario")
	}
}
