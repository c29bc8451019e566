package flow

import (
	"math"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// diamond builds the 4-node diamond 0-(1|2)-3 with the given capacities on
// the four edges (0-1, 1-3, 0-2, 2-3).
func diamond(caps [4]float64) *graph.Graph {
	g := graph.New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode("", float64(i), float64(i%2), 1)
	}
	g.MustAddEdge(0, 1, caps[0], 1)
	g.MustAddEdge(1, 3, caps[1], 1)
	g.MustAddEdge(0, 2, caps[2], 1)
	g.MustAddEdge(2, 3, caps[3], 1)
	return g
}

func pairs(ps ...demand.Pair) []demand.Pair { return ps }

func TestInstanceCapacityAndExclusions(t *testing.T) {
	g := diamond([4]float64{10, 10, 5, 5})
	in := &Instance{
		Graph:         g,
		Capacities:    []float64{3, 10, 5, 5},
		ExcludedNodes: map[graph.NodeID]bool{2: true},
		ExcludedEdges: map[graph.EdgeID]bool{1: true},
	}
	if c := in.Capacity(0); c != 3 {
		t.Errorf("Capacity(0) = %f, want 3 (override)", c)
	}
	if c := in.Capacity(1); c != 0 {
		t.Errorf("Capacity(1) = %f, want 0 (excluded edge)", c)
	}
	if c := in.Capacity(2); c != 0 {
		t.Errorf("Capacity(2) = %f, want 0 (excluded endpoint)", c)
	}
	usable := usableEdges(in.usableInto(nil))
	if len(usable) != 1 || usable[0] != 0 {
		t.Errorf("usable edges = %v, want [0]", usable)
	}
	in.Capacities[0] = -5
	if c := in.Capacity(0); c != 0 {
		t.Errorf("negative override should clamp to 0, got %f", c)
	}
}

func TestInstanceValidate(t *testing.T) {
	g := diamond([4]float64{1, 1, 1, 1})
	good := &Instance{Graph: g, Demands: pairs(demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 1})}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	bad := &Instance{Graph: g, Demands: pairs(demand.Pair{ID: 0, Source: 0, Target: 99, Flow: 1})}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for unknown endpoint")
	}
	excl := &Instance{
		Graph:         g,
		Demands:       pairs(demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 1}),
		ExcludedNodes: map[graph.NodeID]bool{0: true},
	}
	if err := excl.Validate(); err == nil {
		t.Error("expected error for excluded endpoint")
	}
	if err := (&Instance{}).Validate(); err == nil {
		t.Error("expected error for nil graph")
	}
}

func TestRoutabilitySingleDemandFeasible(t *testing.T) {
	g := diamond([4]float64{10, 10, 5, 5})
	in := &Instance{Graph: g, Demands: pairs(demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 12})}
	for _, mode := range []Mode{ModeExact, ModeConstructive, ModeAuto} {
		res := CheckRoutability(in, Options{Mode: mode})
		if !res.Routable {
			t.Errorf("mode %d: demand 12 should be routable (capacity 15)", mode)
		}
		if mode == ModeExact && !res.Exact {
			t.Error("exact mode should report Exact")
		}
		if res.Routing != nil {
			checkRoutingFeasible(t, in, res.Routing)
		}
	}
}

func TestRoutabilityInfeasibleByCapacity(t *testing.T) {
	g := diamond([4]float64{10, 10, 5, 5})
	in := &Instance{Graph: g, Demands: pairs(demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 20})}
	res := CheckRoutability(in, Options{Mode: ModeExact})
	if res.Routable {
		t.Error("demand 20 should not be routable (max flow 15)")
	}
}

func TestRoutabilityTwoCompetingDemands(t *testing.T) {
	// Demands 0->3 and 1->2 share the diamond. Each needs 8; edge capacities
	// allow at most 15 across the 0-3 cut, and the 1->2 demand must traverse
	// either 1-0-2 or 1-3-2.
	g := diamond([4]float64{10, 10, 5, 5})
	in := &Instance{Graph: g, Demands: pairs(
		demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 8},
		demand.Pair{ID: 1, Source: 1, Target: 2, Flow: 4},
	)}
	res := CheckRoutability(in, Options{Mode: ModeExact})
	if !res.Routable {
		t.Fatal("joint demand should be routable")
	}
	checkRoutingFeasible(t, in, res.Routing)

	// Push the second demand beyond what sharing allows.
	in.Demands[1].Flow = 12
	res = CheckRoutability(in, Options{Mode: ModeExact})
	if res.Routable {
		t.Error("joint demand should not be routable")
	}
}

func TestRoutabilityEmptyDemand(t *testing.T) {
	g := diamond([4]float64{1, 1, 1, 1})
	res := CheckRoutability(&Instance{Graph: g}, Options{})
	if !res.Routable || !res.Exact {
		t.Error("empty demand is trivially routable")
	}
}

func TestRoutabilityExcludedElements(t *testing.T) {
	g := diamond([4]float64{10, 10, 10, 10})
	in := &Instance{
		Graph:         g,
		Demands:       pairs(demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 15}),
		ExcludedNodes: map[graph.NodeID]bool{2: true},
	}
	// Only the 0-1-3 route remains (capacity 10): 15 not routable, 10 is.
	if CheckRoutability(in, Options{Mode: ModeExact}).Routable {
		t.Error("15 units should not fit through a single 10-unit route")
	}
	in.Demands[0].Flow = 10
	if !CheckRoutability(in, Options{Mode: ModeExact}).Routable {
		t.Error("10 units should fit")
	}
}

func TestConstructiveRoutingOrderingAndResiduals(t *testing.T) {
	g := diamond([4]float64{10, 10, 5, 5})
	in := &Instance{Graph: g, Demands: pairs(
		demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 9},
		demand.Pair{ID: 1, Source: 0, Target: 3, Flow: 6},
	)}
	routing, ok := ConstructiveRouting(in)
	if !ok {
		t.Fatal("constructive routing should succeed (total 15 = max flow)")
	}
	checkRoutingFeasible(t, in, routing)
}

func TestConstructiveRoutingFailure(t *testing.T) {
	g := diamond([4]float64{2, 2, 2, 2})
	in := &Instance{Graph: g, Demands: pairs(demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 10})}
	if _, ok := ConstructiveRouting(in); ok {
		t.Error("constructive routing should fail for demand 10 over capacity 4")
	}
}

func TestMaxSplitBasic(t *testing.T) {
	// Path 0-1-2 with capacity 10; demand 0->2 of 6. Splitting through node
	// 1 should allow the full 6 units.
	g := graph.New(3, 2)
	for i := 0; i < 3; i++ {
		g.AddNode("", float64(i), 0, 1)
	}
	g.MustAddEdge(0, 1, 10, 1)
	g.MustAddEdge(1, 2, 10, 1)
	d := demand.Pair{ID: 0, Source: 0, Target: 2, Flow: 6}
	in := &Instance{Graph: g, Demands: pairs(d)}
	dx, err := MaxSplitUsing(nil, in, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dx-6) > 1e-6 {
		t.Errorf("dx = %f, want 6", dx)
	}
}

func TestMaxSplitLimitedByCapacity(t *testing.T) {
	// Diamond with a cheap wide route 0-2-3 (cap 10) and a narrow route
	// through node 1 (cap 4). Splitting the 0->3 demand of 10 through node 1
	// can carry at most 4 units.
	g := diamond([4]float64{4, 4, 10, 10})
	d := demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 10}
	in := &Instance{Graph: g, Demands: pairs(d)}
	dx, err := MaxSplitUsing(nil, in, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dx-4) > 1e-6 {
		t.Errorf("dx = %f, want 4", dx)
	}
}

func TestMaxSplitRespectsOtherDemands(t *testing.T) {
	// A competing demand 1->3 consumes capacity around the split node, so
	// the splittable amount with the competitor present can never exceed the
	// amount without it, and the post-split demand set must stay routable.
	g := diamond([4]float64{10, 10, 10, 10})
	d0 := demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 10}
	d1 := demand.Pair{ID: 1, Source: 1, Target: 3, Flow: 8}

	alone := &Instance{Graph: g, Demands: pairs(d0)}
	dxAlone, err := MaxSplitUsing(nil, alone, d0, 1)
	if err != nil {
		t.Fatal(err)
	}
	contended := &Instance{Graph: g, Demands: pairs(d0, d1)}
	dx, err := MaxSplitUsing(nil, contended, d0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dx > dxAlone+1e-6 {
		t.Errorf("dx with competition (%f) exceeds dx alone (%f)", dx, dxAlone)
	}
	if dx <= 0 {
		t.Fatalf("dx = %f, want > 0", dx)
	}

	// Apply the split and confirm the resulting demand set is still
	// routable (the invariant MaxSplitUsing is defined to preserve).
	post := &Instance{Graph: g, Demands: pairs(
		demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 10 - dx},
		d1,
		demand.Pair{ID: 2, Source: 0, Target: 1, Flow: dx},
		demand.Pair{ID: 3, Source: 1, Target: 3, Flow: dx},
	)}
	if !CheckRoutability(post, Options{Mode: ModeExact}).Routable {
		t.Errorf("post-split demand set with dx=%f is not routable", dx)
	}
}

func TestMaxSplitErrors(t *testing.T) {
	g := diamond([4]float64{1, 1, 1, 1})
	d := demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 1}
	in := &Instance{Graph: g, Demands: pairs(d)}
	if _, err := MaxSplitUsing(nil, in, d, 99); err == nil {
		t.Error("expected error for unknown split node")
	}
	if _, err := MaxSplitUsing(nil, in, d, 0); err == nil {
		t.Error("expected error for endpoint split node")
	}
	if dx, err := MaxSplitUsing(nil, in, demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 0}, 1); err != nil || dx != 0 {
		t.Errorf("zero-flow split: dx=%f err=%v", dx, err)
	}
}

func TestMaxSplitNoUsableEdges(t *testing.T) {
	g := diamond([4]float64{1, 1, 1, 1})
	d := demand.Pair{ID: 0, Source: 0, Target: 3, Flow: 1}
	in := &Instance{
		Graph:         g,
		Demands:       pairs(d),
		ExcludedEdges: map[graph.EdgeID]bool{0: true, 1: true, 2: true, 3: true},
	}
	dx, err := MaxSplitUsing(nil, in, d, 1)
	if err != nil || dx != 0 {
		t.Errorf("dx = %f err = %v, want 0, nil", dx, err)
	}
}

func TestMulticommodityRelaxation(t *testing.T) {
	// Diamond, all elements intact except edge 0 (0-1) broken with repair
	// cost 1. One demand 0->3 of 4 units fits entirely on the intact route
	// 0-2-3 (cap 5), so the relaxation cost should be 0 and the Best plan
	// should repair nothing.
	g := diamond([4]float64{10, 10, 5, 5})
	dg := demand.New()
	dg.MustAdd(0, 3, 4)
	s := &scenario.Scenario{
		Supply:      g,
		Demand:      dg,
		BrokenNodes: map[graph.NodeID]bool{},
		BrokenEdges: map[graph.EdgeID]bool{0: true},
	}
	res, err := MulticommodityRelaxation(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("relaxation should be feasible")
	}
	if res.Cost > 1e-6 {
		t.Errorf("cost = %f, want 0", res.Cost)
	}
	if _, _, total := res.Best.NumRepairs(); total != 0 {
		t.Errorf("Best repairs = %d, want 0", total)
	}
	// Worst is allowed to use the broken edge only while staying on the
	// optimal face (cost 0), so it must not route anything over edge 0
	// either: with cost pinned at 0, no flow on broken edge is permitted.
	if res.Worst.RepairedEdges[0] {
		t.Error("Worst should not repair edge 0 when the pinned cost is 0")
	}
}

func TestMulticommodityRelaxationNeedsBrokenEdge(t *testing.T) {
	// Demand 12 > intact route capacity 5, so some flow must cross the
	// broken edge 0-1; both plans must repair it (and the relaxation cost is
	// positive).
	g := diamond([4]float64{10, 10, 5, 5})
	dg := demand.New()
	dg.MustAdd(0, 3, 12)
	s := &scenario.Scenario{
		Supply:      g,
		Demand:      dg,
		BrokenNodes: map[graph.NodeID]bool{},
		BrokenEdges: map[graph.EdgeID]bool{0: true},
	}
	res, err := MulticommodityRelaxation(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("relaxation should be feasible")
	}
	if res.Cost <= 0 {
		t.Errorf("cost = %f, want > 0", res.Cost)
	}
	if !res.Best.RepairedEdges[0] || !res.Worst.RepairedEdges[0] {
		t.Error("both plans must repair edge 0")
	}
	if err := scenario.VerifyPlan(s, res.Best); err != nil {
		t.Errorf("Best plan invalid: %v", err)
	}
	if err := scenario.VerifyPlan(s, res.Worst); err != nil {
		t.Errorf("Worst plan invalid: %v", err)
	}
}

func TestMulticommodityRelaxationInfeasible(t *testing.T) {
	g := diamond([4]float64{1, 1, 1, 1})
	dg := demand.New()
	dg.MustAdd(0, 3, 100)
	s := &scenario.Scenario{
		Supply:      g,
		Demand:      dg,
		BrokenNodes: map[graph.NodeID]bool{},
		BrokenEdges: map[graph.EdgeID]bool{},
	}
	res, err := MulticommodityRelaxation(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("demand 100 on capacity 2 must be infeasible")
	}
}

func TestMulticommodityRelaxationEmptyDemand(t *testing.T) {
	g := diamond([4]float64{1, 1, 1, 1})
	s := &scenario.Scenario{
		Supply:      g,
		Demand:      demand.New(),
		BrokenNodes: map[graph.NodeID]bool{},
		BrokenEdges: map[graph.EdgeID]bool{},
	}
	res, err := MulticommodityRelaxation(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Error("empty demand is feasible")
	}
}

// checkRoutingFeasible verifies capacity and conservation of a routing
// against the instance.
func checkRoutingFeasible(t *testing.T, in *Instance, routing scenario.Routing) {
	t.Helper()
	load := routing.EdgeLoad()
	for eid, l := range load {
		if l > in.Capacity(eid)+1e-6 {
			t.Errorf("edge %d overloaded: %f > %f", eid, l, in.Capacity(eid))
		}
	}
	for _, d := range in.Demands {
		if d.Flow <= capacityEpsilon {
			continue
		}
		net := make(map[graph.NodeID]float64)
		for eid, f := range routing[d.ID] {
			e := in.Graph.Edge(eid)
			net[e.From] -= f
			net[e.To] += f
		}
		if math.Abs(net[d.Target]-d.Flow) > 1e-6 {
			t.Errorf("pair %d delivers %f, want %f", d.ID, net[d.Target], d.Flow)
		}
		for v, imbalance := range net {
			if v == d.Source || v == d.Target {
				continue
			}
			if math.Abs(imbalance) > 1e-6 {
				t.Errorf("pair %d conservation violated at %d: %f", d.ID, v, imbalance)
			}
		}
	}
}
