package progressive

import (
	"context"
	"math"
	"testing"

	"netrecovery/internal/core"
	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

// destroyedLine returns a fully destroyed 5-node line with one 5-unit demand
// 0->4 and the ISP plan that repairs the whole line (9 elements, cost 9).
func destroyedLine(t *testing.T) (*scenario.Scenario, *scenario.Plan) {
	t.Helper()
	g := graph.New(5, 4)
	for i := 0; i < 5; i++ {
		g.AddNode("", float64(i), 0, 1)
	}
	for i := 0; i < 4; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 10, 1)
	}
	dg := demand.New()
	dg.MustAdd(0, 4, 5)
	d := disruption.Complete(g)
	s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
	plan, _, err := core.Solve(context.Background(), s.Clone(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, plan
}

func TestBuildSchedulesEverythingOnce(t *testing.T) {
	s, plan := destroyedLine(t)
	sched, err := Build(s, plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _, total := plan.NumRepairs()
	scheduled := 0
	seen := make(map[string]bool)
	for _, stage := range sched.Stages {
		if stage.Cost > 3+1e-9 {
			t.Errorf("stage %d cost %f exceeds budget", stage.Index, stage.Cost)
		}
		for _, el := range stage.Repairs {
			if seen[el.String()] {
				t.Errorf("element %s scheduled twice", el)
			}
			seen[el.String()] = true
			scheduled++
		}
	}
	if scheduled != total {
		t.Errorf("scheduled %d elements, plan has %d", scheduled, total)
	}
	if math.Abs(sched.TotalCost-plan.RepairCost(s)) > 1e-9 {
		t.Errorf("TotalCost = %f, want %f", sched.TotalCost, plan.RepairCost(s))
	}
	if sched.FinalSatisfiedRatio < 1-1e-9 {
		t.Errorf("final ratio = %f, want 1", sched.FinalSatisfiedRatio)
	}
}

func TestBuildSatisfactionIsMonotone(t *testing.T) {
	s, plan := destroyedLine(t)
	sched, err := Build(s, plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, stage := range sched.Stages {
		if stage.SatisfiedDemand < prev-1e-9 {
			t.Errorf("satisfied demand decreased at stage %d: %f -> %f", stage.Index, prev, stage.SatisfiedDemand)
		}
		prev = stage.SatisfiedDemand
	}
	// The line only carries flow once every element is repaired, so the last
	// stage must reach 5 units and earlier stages are below it.
	last := sched.Stages[len(sched.Stages)-1]
	if math.Abs(last.SatisfiedDemand-5) > 1e-9 {
		t.Errorf("final satisfied = %f, want 5", last.SatisfiedDemand)
	}
	if sched.Stages[0].SatisfiedDemand > 5-1e-9 {
		t.Errorf("first stage already satisfies everything with budget 2: %+v", sched.Stages[0])
	}
}

func TestBuildLargerBudgetFewerStages(t *testing.T) {
	s, plan := destroyedLine(t)
	small, err := Build(s, plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Build(s, plan, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(large.Stages) != 1 {
		t.Errorf("budget 100 should finish in one stage, got %d", len(large.Stages))
	}
	if len(small.Stages) <= len(large.Stages) {
		t.Errorf("smaller budget should need more stages: %d vs %d", len(small.Stages), len(large.Stages))
	}
}

func TestBuildErrors(t *testing.T) {
	s, plan := destroyedLine(t)
	if _, err := Build(s, plan, 0); err == nil {
		t.Error("expected error for non-positive budget")
	}
	// Make one repair more expensive than the budget.
	s.Supply.SetNodeRepairCost(2, 50)
	if _, err := Build(s, plan, 3); err == nil {
		t.Error("expected error when an element exceeds the stage budget")
	}
}

func TestBuildEmptyPlan(t *testing.T) {
	g, err := topology.Grid(2, 2, topology.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	dg := demand.New()
	dg.MustAdd(0, 3, 2)
	s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: map[graph.NodeID]bool{}, BrokenEdges: map[graph.EdgeID]bool{}}
	plan := scenario.NewPlan("empty")
	sched, err := Build(s, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Stages) != 0 {
		t.Errorf("stages = %d, want 0", len(sched.Stages))
	}
}

func TestBuildGridScenarioWithISPPlan(t *testing.T) {
	g, err := topology.Grid(3, 3, topology.DefaultConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	dg := demand.New()
	dg.MustAdd(0, 8, 10)
	dg.MustAdd(2, 6, 10)
	d := disruption.Complete(g)
	s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
	plan, _, err := core.Solve(context.Background(), s.Clone(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Build(s, plan, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sched.FinalSatisfiedRatio < 1-1e-9 {
		t.Errorf("final ratio = %f, want 1 (ISP plan serves everything)", sched.FinalSatisfiedRatio)
	}
	// Intermediate stages must respect the budget and make progress.
	for i, stage := range sched.Stages {
		if stage.Cost > 4+1e-9 {
			t.Errorf("stage %d over budget: %f", i, stage.Cost)
		}
		if len(stage.Repairs) == 0 {
			t.Errorf("stage %d is empty", i)
		}
	}
	if elementString := (Element{Node: 3, Edge: graph.InvalidEdge}).String(); elementString != "node 3" {
		t.Errorf("Element.String = %q", elementString)
	}
	if elementString := (Element{Node: graph.InvalidNode, Edge: 7}).String(); elementString != "edge 7" {
		t.Errorf("Element.String = %q", elementString)
	}
}
