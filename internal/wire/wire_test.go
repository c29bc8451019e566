package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

func testScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	g := graph.New(4, 4)
	g.AddNode("a", 0, 0, 1)
	g.AddNode("b", 1, 0, 2)
	g.AddNode("c", 1, 1, 3)
	g.AddNode("d", 0, 1, 4)
	g.MustAddEdge(0, 1, 10, 1)
	g.MustAddEdge(1, 2, 10, 2)
	g.MustAddEdge(2, 3, 10, 3)
	g.MustAddEdge(3, 0, 10, 4)
	dg := demand.New()
	dg.MustAdd(0, 2, 5)
	s := &scenario.Scenario{
		Supply:      g,
		Demand:      dg,
		BrokenNodes: map[graph.NodeID]bool{3: true, 1: true},
		BrokenEdges: map[graph.EdgeID]bool{2: true, 0: true},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScenarioRoundTrip(t *testing.T) {
	s := testScenario(t)
	ws := FromScenario("square", s)
	raw, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Scenario
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Fingerprint(), s.Fingerprint(); got != want {
		t.Fatalf("wire round trip changed the scenario fingerprint:\n got  %x\n want %x", got, want)
	}
}

// TestScenarioEncodingDeterministic: the same scenario marshals to
// byte-identical JSON every time (sorted ID lists, canonical field order).
func TestScenarioEncodingDeterministic(t *testing.T) {
	s := testScenario(t)
	first, err := json.Marshal(FromScenario("square", s))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := json.Marshal(FromScenario("square", s.Clone()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("run %d: scenario encoding not deterministic:\n%s\nvs\n%s", i, first, again)
		}
	}
	var ws Scenario
	if err := json.Unmarshal(first, &ws); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ws.BrokenNodes); i++ {
		if ws.BrokenNodes[i-1] >= ws.BrokenNodes[i] {
			t.Fatalf("broken_nodes not sorted: %v", ws.BrokenNodes)
		}
	}
	for i := 1; i < len(ws.BrokenLinks); i++ {
		if ws.BrokenLinks[i-1] >= ws.BrokenLinks[i] {
			t.Fatalf("broken_links not sorted: %v", ws.BrokenLinks)
		}
	}
}

func TestScenarioBuildRejectsInvalid(t *testing.T) {
	cases := map[string]Scenario{
		"broken node out of range": {
			Nodes:       []Node{{}, {}},
			Links:       []Link{{From: 0, To: 1, Capacity: 1}},
			BrokenNodes: []int{5},
		},
		"link endpoint out of range": {
			Nodes: []Node{{}, {}},
			Links: []Link{{From: 0, To: 9, Capacity: 1}},
		},
		"demand endpoint out of range": {
			Nodes:   []Node{{}, {}},
			Links:   []Link{{From: 0, To: 1, Capacity: 1}},
			Demands: []Demand{{Source: 0, Target: 7, Flow: 1}},
		},
		"non-positive demand flow": {
			Nodes:   []Node{{}, {}},
			Links:   []Link{{From: 0, To: 1, Capacity: 1}},
			Demands: []Demand{{Source: 0, Target: 1, Flow: 0}},
		},
	}
	for name, ws := range cases {
		if _, err := ws.Build(); err == nil {
			t.Errorf("%s: Build accepted an invalid scenario", name)
		}
	}
}

// TestPlanEncoding solves a scenario and checks the plan's wire form: sorted
// ID lists, consistent counts, deterministic bytes for the same plan.
func TestPlanEncoding(t *testing.T) {
	s := testScenario(t)
	solver, err := heuristics.New("ISP", heuristics.Params{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solver.Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	wp := FromPlan(s, plan)
	if wp.Algorithm != "ISP" {
		t.Errorf("Algorithm = %q", wp.Algorithm)
	}
	if wp.ScenarioFingerprint != s.FingerprintHex() {
		t.Errorf("fingerprint mismatch: %s vs %s", wp.ScenarioFingerprint, s.FingerprintHex())
	}
	if wp.NodeRepairs != len(wp.RepairedNodes) || wp.LinkRepairs != len(wp.RepairedLinks) {
		t.Errorf("repair counts inconsistent with ID lists: %+v", wp)
	}
	if wp.TotalRepairs != wp.NodeRepairs+wp.LinkRepairs {
		t.Errorf("TotalRepairs = %d, want %d", wp.TotalRepairs, wp.NodeRepairs+wp.LinkRepairs)
	}
	for i := 1; i < len(wp.RepairedNodes); i++ {
		if wp.RepairedNodes[i-1] >= wp.RepairedNodes[i] {
			t.Fatalf("repaired_nodes not sorted: %v", wp.RepairedNodes)
		}
	}
	for i := 1; i < len(wp.RepairedLinks); i++ {
		if wp.RepairedLinks[i-1] >= wp.RepairedLinks[i] {
			t.Fatalf("repaired_links not sorted: %v", wp.RepairedLinks)
		}
	}
	first, err := json.Marshal(wp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := json.Marshal(FromPlan(s, plan))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("plan encoding not deterministic:\n%s\nvs\n%s", first, again)
		}
	}
}

func TestPlanWithStages(t *testing.T) {
	s := testScenario(t)
	solver, err := heuristics.New("ALL", heuristics.Params{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solver.Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := FromPlan(s, plan).WithStages(s, plan, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(wp.Stages) == 0 {
		t.Fatal("no stages computed")
	}
	total := 0
	for _, st := range wp.Stages {
		total += len(st.RepairedNodes) + len(st.RepairedLinks)
	}
	if total != wp.TotalRepairs {
		t.Fatalf("stages cover %d repairs, plan has %d", total, wp.TotalRepairs)
	}
	if _, err := FromPlan(s, plan).WithStages(s, plan, 0.001); err == nil {
		t.Fatal("WithStages accepted a budget smaller than the largest repair")
	}
}

// TestScenarioFingerprintMatchesBuild: the wire-derived fingerprint equals
// the built scenario's on random damaged grids whose broken lists arrive
// shuffled and with repeats, as a client may send them.
func TestScenarioFingerprintMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		g, err := topology.Grid(2+rng.Intn(4), 2+rng.Intn(4), topology.DefaultConfig(10))
		if err != nil {
			t.Fatal(err)
		}
		dg, err := demand.GenerateUniformPairs(g, 1+rng.Intn(3), 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		d := disruption.Random(g, 0.3, 0.3, rng)
		s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
		ws := FromScenario("grid", s)
		for _, ids := range []*[]int{&ws.BrokenNodes, &ws.BrokenLinks} {
			if len(*ids) > 0 {
				*ids = append(*ids, (*ids)[rng.Intn(len(*ids))])
				rng.Shuffle(len(*ids), func(a, b int) { (*ids)[a], (*ids)[b] = (*ids)[b], (*ids)[a] })
			}
		}
		built, err := ws.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ws.Fingerprint(), s.Fingerprint(); got != want || built.Fingerprint() != want {
			t.Fatalf("scenario %d: wire fingerprint %x, built %x, original %x", i, got, built.Fingerprint(), want)
		}
	}
}

// TestFractionalCostDeterministic: a plan repairing eight nodes with
// fractional repair costs reads one cost bit pattern, and renders to the
// same bytes, on every call. Summed in map order, these costs read
// 10.611 on some calls and 10.610999999999999 on others.
func TestFractionalCostDeterministic(t *testing.T) {
	costs := []float64{0.1, 0.2, 0.3, 1.7, 2.11, 3.001, 0.5, 2.7}
	ws := Scenario{Demands: []Demand{{Source: 0, Target: 7, Flow: 1}}}
	for i, c := range costs {
		ws.Nodes = append(ws.Nodes, Node{X: float64(i), RepairCost: c})
		ws.BrokenNodes = append(ws.BrokenNodes, i)
		if i > 0 {
			ws.Links = append(ws.Links, Link{From: i - 1, To: i, Capacity: 1, RepairCost: 1})
		}
	}
	s, err := ws.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := scenario.NewPlan("ISP")
	for v := range s.BrokenNodes {
		plan.RepairedNodes[v] = true
	}
	bits := map[uint64]int{}
	renderings := map[string]int{}
	for i := 0; i < 2000; i++ {
		bits[math.Float64bits(plan.RepairCost(s))]++
		bits[math.Float64bits(s.TotalRepairCost())]++
		raw, err := json.Marshal(FromPlan(s, plan))
		if err != nil {
			t.Fatal(err)
		}
		renderings[string(raw)]++
	}
	if len(bits) != 1 || len(renderings) != 1 {
		t.Fatalf("%d cost bit patterns %v and %d renderings over 2,000 calls, want one each", len(bits), bits, len(renderings))
	}
}
