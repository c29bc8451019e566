package scenario

import (
	"testing"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
)

// buildScenario returns a 4-node path 0-1-2-3 (capacity 10) with node 1 and
// edge (2,3) broken, and a single demand 0->3 of 5 units.
func buildScenario(t *testing.T) *Scenario {
	t.Helper()
	g := graph.New(4, 3)
	for i := 0; i < 4; i++ {
		g.AddNode("", float64(i), 0, 2)
	}
	g.MustAddEdge(0, 1, 10, 3) // edge 0
	g.MustAddEdge(1, 2, 10, 3) // edge 1
	g.MustAddEdge(2, 3, 10, 3) // edge 2
	dg := demand.New()
	dg.MustAdd(0, 3, 5)
	return &Scenario{
		Supply:      g,
		Demand:      dg,
		BrokenNodes: map[graph.NodeID]bool{1: true},
		BrokenEdges: map[graph.EdgeID]bool{2: true},
	}
}

func TestValidate(t *testing.T) {
	s := buildScenario(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := buildScenario(t)
	bad.BrokenNodes[99] = true
	if err := bad.Validate(); err == nil {
		t.Error("expected error for unknown broken node")
	}
	bad2 := buildScenario(t)
	bad2.BrokenEdges[99] = true
	if err := bad2.Validate(); err == nil {
		t.Error("expected error for unknown broken edge")
	}
	bad3 := buildScenario(t)
	bad3.Demand.MustAdd(0, 99, 1)
	if err := bad3.Validate(); err == nil {
		t.Error("expected error for unknown demand endpoint")
	}
	if err := (&Scenario{}).Validate(); err == nil {
		t.Error("expected error for nil members")
	}
	if err := (&Scenario{Supply: graph.New(0, 0)}).Validate(); err == nil {
		t.Error("expected error for nil demand")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := buildScenario(t)
	c := s.Clone()
	c.BrokenNodes[3] = true
	c.BrokenEdges[0] = true
	c.Supply.SetCapacity(0, 99)
	if err := c.Demand.SetFlow(0, 1); err != nil {
		t.Fatal(err)
	}
	if s.BrokenNodes[3] || s.BrokenEdges[0] {
		t.Error("clone shares broken sets")
	}
	if s.Supply.Edge(0).Capacity == 99 {
		t.Error("clone shares supply graph")
	}
	if s.Demand.Flow(0) != 5 {
		t.Error("clone shares demand graph")
	}
}

func TestScenarioAccounting(t *testing.T) {
	s := buildScenario(t)
	nodes, edges := s.NumBroken()
	if nodes != 1 || edges != 1 {
		t.Errorf("NumBroken = %d, %d", nodes, edges)
	}
	if cost := s.TotalRepairCost(); cost != 2+3 {
		t.Errorf("TotalRepairCost = %f, want 5", cost)
	}
}

func TestEdgeUsable(t *testing.T) {
	s := buildScenario(t)
	// Edge 0 joins 0-1; node 1 broken -> unusable until node 1 repaired.
	if s.EdgeUsable(0, nil, nil) {
		t.Error("edge 0 should be unusable with node 1 broken")
	}
	if !s.EdgeUsable(0, map[graph.NodeID]bool{1: true}, nil) {
		t.Error("edge 0 should be usable once node 1 repaired")
	}
	// Edge 2 is itself broken.
	if s.EdgeUsable(2, map[graph.NodeID]bool{1: true}, nil) {
		t.Error("edge 2 should be unusable until repaired")
	}
	if !s.EdgeUsable(2, nil, map[graph.EdgeID]bool{2: true}) {
		t.Error("edge 2 should be usable once repaired")
	}
}

func TestRoutingHelpers(t *testing.T) {
	r := make(Routing)
	r.AddFlow(0, 1, 3)
	r.AddFlow(0, 1, 2)
	r.AddFlow(1, 1, -4)
	load := r.EdgeLoad()
	if load[1] != 9 {
		t.Errorf("EdgeLoad = %v, want 9 on edge 1", load)
	}
	c := r.Clone()
	c.AddFlow(0, 1, 100)
	if r[0][1] != 5 {
		t.Error("Clone shares maps")
	}
}

func TestPlanAccounting(t *testing.T) {
	s := buildScenario(t)
	p := NewPlan("test")
	p.RepairedNodes[1] = true
	p.RepairedEdges[2] = true
	p.TotalDemand = 5
	p.SatisfiedDemand = 5
	p.Runtime = 10 * time.Millisecond
	n, e, total := p.NumRepairs()
	if n != 1 || e != 1 || total != 2 {
		t.Errorf("NumRepairs = %d, %d, %d", n, e, total)
	}
	if cost := p.RepairCost(s); cost != 5 {
		t.Errorf("RepairCost = %f, want 5", cost)
	}
	if p.SatisfactionRatio() != 1 {
		t.Errorf("SatisfactionRatio = %f", p.SatisfactionRatio())
	}
	p.SatisfiedDemand = 20
	if p.SatisfactionRatio() != 1 {
		t.Error("ratio should clamp at 1")
	}
	p.SatisfiedDemand = -1
	if p.SatisfactionRatio() != 0 {
		t.Error("ratio should clamp at 0")
	}
	empty := NewPlan("x")
	if empty.SatisfactionRatio() != 1 {
		t.Error("zero-demand plan is fully satisfied by convention")
	}
	if p.String() == "" {
		t.Error("String should not be empty")
	}
}

func TestVerifyPlanHappyPath(t *testing.T) {
	s := buildScenario(t)
	p := NewPlan("test")
	p.RepairedNodes[1] = true
	p.RepairedEdges[2] = true
	p.TotalDemand = 5
	p.SatisfiedDemand = 5
	// Route 5 units along 0-1-2-3. Edge orientation matches construction
	// (From < To), so flow is positive.
	p.Routing.AddFlow(0, 0, 5)
	p.Routing.AddFlow(0, 1, 5)
	p.Routing.AddFlow(0, 2, 5)
	if err := VerifyPlan(s, p); err != nil {
		t.Fatalf("VerifyPlan: %v", err)
	}
}

func TestVerifyPlanFailures(t *testing.T) {
	s := buildScenario(t)

	t.Run("repairs element that is not broken", func(t *testing.T) {
		p := NewPlan("bad")
		p.RepairedNodes[0] = true
		if err := VerifyPlan(s, p); err == nil {
			t.Error("expected error")
		}
		p2 := NewPlan("bad")
		p2.RepairedEdges[0] = true
		if err := VerifyPlan(s, p2); err == nil {
			t.Error("expected error")
		}
	})

	t.Run("routing over broken unrepaired edge", func(t *testing.T) {
		p := NewPlan("bad")
		p.RepairedNodes[1] = true
		p.TotalDemand = 5
		p.Routing.AddFlow(0, 0, 5)
		p.Routing.AddFlow(0, 1, 5)
		p.Routing.AddFlow(0, 2, 5) // edge 2 broken, not repaired
		if err := VerifyPlan(s, p); err == nil {
			t.Error("expected error")
		}
	})

	t.Run("capacity violation", func(t *testing.T) {
		p := NewPlan("bad")
		p.RepairedNodes[1] = true
		p.RepairedEdges[2] = true
		p.Routing.AddFlow(0, 0, 50)
		p.Routing.AddFlow(0, 1, 50)
		p.Routing.AddFlow(0, 2, 50)
		if err := VerifyPlan(s, p); err == nil {
			t.Error("expected error")
		}
	})

	t.Run("conservation violation", func(t *testing.T) {
		p := NewPlan("bad")
		p.RepairedNodes[1] = true
		p.RepairedEdges[2] = true
		p.Routing.AddFlow(0, 0, 5) // flow appears at node 1 and vanishes
		if err := VerifyPlan(s, p); err == nil {
			t.Error("expected error")
		}
	})

	t.Run("delivers more than demand", func(t *testing.T) {
		p := NewPlan("bad")
		p.RepairedNodes[1] = true
		p.RepairedEdges[2] = true
		p.Routing.AddFlow(0, 0, 8)
		p.Routing.AddFlow(0, 1, 8)
		p.Routing.AddFlow(0, 2, 8)
		if err := VerifyPlan(s, p); err == nil {
			t.Error("expected error")
		}
	})

	t.Run("claims more satisfied demand than routed", func(t *testing.T) {
		p := NewPlan("bad")
		p.RepairedNodes[1] = true
		p.RepairedEdges[2] = true
		p.TotalDemand = 5
		p.SatisfiedDemand = 5
		p.Routing.AddFlow(0, 0, 2)
		p.Routing.AddFlow(0, 1, 2)
		p.Routing.AddFlow(0, 2, 2)
		if err := VerifyPlan(s, p); err == nil {
			t.Error("expected error")
		}
	})

	t.Run("unknown pair and unknown edge", func(t *testing.T) {
		p := NewPlan("bad")
		p.Routing.AddFlow(demand.PairID(7), 0, 1)
		if err := VerifyPlan(s, p); err == nil {
			t.Error("expected error for unknown pair")
		}
		p2 := NewPlan("bad")
		p2.Routing.AddFlow(0, graph.EdgeID(55), 1)
		if err := VerifyPlan(s, p2); err == nil {
			t.Error("expected error for unknown edge")
		}
	})
}

func TestVerifyPlanNoRouting(t *testing.T) {
	s := buildScenario(t)
	p := NewPlan("repair-only")
	p.Routing = nil
	p.RepairedNodes[1] = true
	if err := VerifyPlan(s, p); err != nil {
		t.Errorf("repair-only plan should verify: %v", err)
	}
}
