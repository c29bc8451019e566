package centrality

import (
	"math"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
)

// line builds a path graph 0-1-...-n-1 with the given capacity.
func line(n int, capacity float64) *graph.Graph {
	g := graph.New(n, n-1)
	for i := 0; i < n; i++ {
		g.AddNode("", float64(i), 0, 1)
	}
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), capacity, 1)
	}
	return g
}

func TestDemandBasedLine(t *testing.T) {
	// Single demand 0->4 of 6 units on a line of capacity 10: every node on
	// the unique path receives the full demand as centrality.
	g := line(5, 10)
	demands := []demand.Pair{{ID: 0, Source: 0, Target: 4, Flow: 6}}
	res := DemandBased(g, demands, graph.UnitLength, nil, nil)
	for v := graph.NodeID(0); v <= 4; v++ {
		if math.Abs(res.Score(v)-6) > 1e-9 {
			t.Errorf("score(%d) = %f, want 6", v, res.Score(v))
		}
		if len(graph.PathsThrough(res.PathSets[0], v)) == 0 {
			t.Errorf("pair 0 should contribute to node %d", v)
		}
	}
	if len(res.PathSets[0]) != 1 {
		t.Errorf("path set size = %d, want 1", len(res.PathSets[0]))
	}
	top, ok := res.TopNode()
	if !ok {
		t.Fatal("expected a top node")
	}
	if top != 0 {
		// All scores are equal; ties break by smallest ID.
		t.Errorf("top = %d, want 0 (tie-break by ID)", top)
	}
}

func TestDemandBasedSharedHub(t *testing.T) {
	// Star: two demands 1->2 and 3->4 all passing through hub 0. The hub
	// accumulates both demands; the leaves only their own.
	g := graph.New(5, 4)
	for i := 0; i < 5; i++ {
		g.AddNode("", float64(i), 0, 1)
	}
	for i := 1; i < 5; i++ {
		g.MustAddEdge(0, graph.NodeID(i), 10, 1)
	}
	demands := []demand.Pair{
		{ID: 0, Source: 1, Target: 2, Flow: 4},
		{ID: 1, Source: 3, Target: 4, Flow: 2},
	}
	res := DemandBased(g, demands, graph.UnitLength, nil, nil)
	if math.Abs(res.Score(0)-6) > 1e-9 {
		t.Errorf("hub score = %f, want 6", res.Score(0))
	}
	if math.Abs(res.Score(1)-4) > 1e-9 || math.Abs(res.Score(3)-2) > 1e-9 {
		t.Errorf("leaf scores = %f, %f; want 4, 2", res.Score(1), res.Score(3))
	}
	top, _ := res.TopNode()
	if top != 0 {
		t.Errorf("top = %d, want hub 0", top)
	}
	ranking := res.Ranking()
	if len(ranking) == 0 || ranking[0] != 0 {
		t.Errorf("ranking = %v, want hub first", ranking)
	}
	for h := range demands {
		if len(graph.PathsThrough(res.PathSets[h], 0)) == 0 {
			t.Errorf("pair %d should contribute to the hub", h)
		}
	}
}

func TestDemandBasedSplitsAcrossParallelPaths(t *testing.T) {
	// Diamond with routes through 1 (capacity 10) and through 2 (capacity 5):
	// a 12-unit demand needs both. Node 1 gets 10/15 of the demand, node 2
	// gets 5/15.
	g := graph.New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode("", float64(i), 0, 1)
	}
	g.MustAddEdge(0, 1, 10, 1)
	g.MustAddEdge(1, 3, 10, 1)
	g.MustAddEdge(0, 2, 5, 1)
	g.MustAddEdge(2, 3, 5, 1)
	demands := []demand.Pair{{ID: 0, Source: 0, Target: 3, Flow: 12}}
	res := DemandBased(g, demands, graph.UnitLength, nil, nil)
	want1 := 10.0 / 15.0 * 12
	want2 := 5.0 / 15.0 * 12
	if math.Abs(res.Score(1)-want1) > 1e-9 {
		t.Errorf("score(1) = %f, want %f", res.Score(1), want1)
	}
	if math.Abs(res.Score(2)-want2) > 1e-9 {
		t.Errorf("score(2) = %f, want %f", res.Score(2), want2)
	}
	// Endpoints lie on every path and receive the full demand.
	if math.Abs(res.Score(0)-12) > 1e-9 || math.Abs(res.Score(3)-12) > 1e-9 {
		t.Errorf("endpoint scores = %f, %f; want 12", res.Score(0), res.Score(3))
	}
}

func TestDemandBasedRespectsResidualCapacities(t *testing.T) {
	g := line(3, 10)
	demands := []demand.Pair{{ID: 0, Source: 0, Target: 2, Flow: 5}}
	residual := []float64{0, 0}
	res := DemandBased(g, demands, graph.UnitLength, residual, nil)
	if len(res.Ranking()) != 0 {
		t.Errorf("scores = %v, want none positive with zero residual capacity", res.Scores)
	}
	if _, ok := res.TopNode(); ok {
		t.Error("TopNode should report no candidate")
	}
}

func TestDemandBasedIgnoresZeroFlowPairs(t *testing.T) {
	g := line(3, 10)
	demands := []demand.Pair{{ID: 0, Source: 0, Target: 2, Flow: 0}}
	res := DemandBased(g, demands, graph.UnitLength, nil, nil)
	if len(res.Ranking()) != 0 {
		t.Errorf("scores = %v, want none positive", res.Scores)
	}
}

func TestBetweennessLine(t *testing.T) {
	// On a path of 5 nodes the middle node lies on 2*3=6 of the
	// (5 choose 2)=10 pairs' shortest paths: betweenness 4 for the centre
	// (pairs (0,2),(0,3),(0,4),(1,3),(1,4),(2,4) -> node 2 is interior to
	// (0,3),(0,4),(1,3),(1,4) plus (0,4)? The classical value for the centre
	// of P5 is 4.
	g := line(5, 1)
	cb := Betweenness(g)
	if math.Abs(cb[2]-4) > 1e-9 {
		t.Errorf("betweenness(2) = %f, want 4", cb[2])
	}
	if cb[0] != 0 || cb[4] != 0 {
		t.Errorf("endpoints should have zero betweenness, got %f, %f", cb[0], cb[4])
	}
	if math.Abs(cb[1]-3) > 1e-9 {
		t.Errorf("betweenness(1) = %f, want 3", cb[1])
	}
}

func TestBetweennessSplitsEqualPaths(t *testing.T) {
	// Square 0-1-3-2-0: the two routes between 0 and 3 are equal length, so
	// nodes 1 and 2 each get 0.5 from that pair.
	g := graph.New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode("", 0, 0, 1)
	}
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 3, 1, 1)
	g.MustAddEdge(0, 2, 1, 1)
	g.MustAddEdge(2, 3, 1, 1)
	cb := Betweenness(g)
	if math.Abs(cb[1]-0.5) > 1e-9 || math.Abs(cb[2]-0.5) > 1e-9 {
		t.Errorf("betweenness = %v, want 0.5 for nodes 1 and 2", cb)
	}
}

func TestBetweennessAsResult(t *testing.T) {
	g := line(5, 10)
	demands := []demand.Pair{{ID: 3, Source: 0, Target: 4, Flow: 6}}
	res := BetweennessAsResult(g, demands)
	top, ok := res.TopNode()
	if !ok || top != 2 {
		t.Errorf("top = %d ok=%v, want node 2", top, ok)
	}
	if len(graph.PathsThrough(res.PathSets[3], top)) == 0 {
		t.Error("demand 3 should be listed as contributor")
	}
	if len(res.PathSets[3]) == 0 {
		t.Error("path sets must be populated for split decisions")
	}
}
