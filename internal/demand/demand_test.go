package demand

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netrecovery/internal/graph"
)

func ringGraph(n int) *graph.Graph {
	g := graph.New(n, n)
	for i := 0; i < n; i++ {
		g.AddNode("", float64(i), 0, 1)
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 10, 1)
	}
	return g
}

func TestAddAndAccessors(t *testing.T) {
	dg := New()
	id, err := dg.Add(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := dg.Pair(id)
	if !ok || p.Source != 0 || p.Target != 1 || p.Flow != 5 {
		t.Errorf("Pair = %+v ok=%v", p, ok)
	}
	if dg.NumPairs() != 1 || dg.TotalFlow() != 5 || dg.Empty() {
		t.Errorf("NumPairs=%d TotalFlow=%f Empty=%v", dg.NumPairs(), dg.TotalFlow(), dg.Empty())
	}
	if dg.Flow(id) != 5 || dg.Flow(PairID(9)) != 0 {
		t.Error("Flow accessor")
	}
}

func TestAddErrors(t *testing.T) {
	dg := New()
	if _, err := dg.Add(3, 3, 1); err == nil {
		t.Error("expected error for identical endpoints")
	}
	if _, err := dg.Add(0, 1, 0); err == nil {
		t.Error("expected error for zero flow")
	}
	if _, err := dg.Add(0, 1, -2); err == nil {
		t.Error("expected error for negative flow")
	}
}

func TestSetFlowReduceAndActive(t *testing.T) {
	dg := New()
	a := dg.MustAdd(0, 1, 10)
	b := dg.MustAdd(2, 3, 4)
	if err := dg.SetFlow(a, 6); err != nil {
		t.Fatal(err)
	}
	if dg.Flow(a) != 6 {
		t.Errorf("Flow(a) = %f, want 6", dg.Flow(a))
	}
	left, err := dg.Reduce(b, 10)
	if err != nil || left != 0 {
		t.Errorf("Reduce = %f, %v; want 0, nil", left, err)
	}
	active := dg.Active()
	if len(active) != 1 || active[0].ID != a {
		t.Errorf("Active = %v", active)
	}
	if len(dg.All()) != 2 {
		t.Errorf("All = %v", dg.All())
	}
	if err := dg.SetFlow(PairID(99), 1); err == nil {
		t.Error("expected error for out-of-range SetFlow")
	}
	if _, err := dg.Reduce(PairID(99), 1); err == nil {
		t.Error("expected error for out-of-range Reduce")
	}
	if err := dg.SetFlow(a, -3); err != nil || dg.Flow(a) != 0 {
		t.Error("negative SetFlow should clamp to zero")
	}
}

func TestNodesAndClone(t *testing.T) {
	dg := New()
	dg.MustAdd(0, 1, 5)
	dg.MustAdd(1, 2, 5)
	c := dg.Clone()
	if err := c.SetFlow(0, 1); err != nil {
		t.Fatal(err)
	}
	if dg.Flow(0) != 5 {
		t.Error("mutating clone affected original")
	}
	if dg.String() == "" {
		t.Error("String should not be empty")
	}
}

func TestSortedByFlowDesc(t *testing.T) {
	dg := New()
	dg.MustAdd(0, 1, 3)
	dg.MustAdd(1, 2, 9)
	dg.MustAdd(2, 3, 9)
	dg.MustAdd(3, 4, 1)
	sorted := dg.SortedByFlowDesc()
	if len(sorted) != 4 {
		t.Fatalf("sorted = %v", sorted)
	}
	if sorted[0].Flow != 9 || sorted[1].Flow != 9 || sorted[0].ID > sorted[1].ID {
		t.Errorf("tie-break by ID violated: %v", sorted[:2])
	}
	if sorted[3].Flow != 1 {
		t.Errorf("last = %+v, want flow 1", sorted[3])
	}
}

func TestGenerateFarApartPairs(t *testing.T) {
	g := ringGraph(12) // diameter 6, so min distance 3
	rng := rand.New(rand.NewSource(1))
	dg, err := GenerateFarApartPairs(g, 4, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if dg.NumPairs() != 4 {
		t.Fatalf("NumPairs = %d, want 4", dg.NumPairs())
	}
	for _, p := range dg.All() {
		if d := g.HopDistance(p.Source, p.Target); d < 3 {
			t.Errorf("pair (%d,%d) distance %d < 3", p.Source, p.Target, d)
		}
		if p.Flow != 10 {
			t.Errorf("flow = %f, want 10", p.Flow)
		}
	}
}

func TestGenerateFarApartPairsErrors(t *testing.T) {
	g := ringGraph(4)
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateFarApartPairs(g, 1000, 1, rng); err == nil {
		t.Error("expected error when requesting too many pairs")
	}
	dg, err := GenerateFarApartPairs(g, 0, 1, rng)
	if err != nil || dg.NumPairs() != 0 {
		t.Errorf("zero pairs: %v, %v", dg, err)
	}
}

func TestGenerateUniformPairs(t *testing.T) {
	g := ringGraph(6)
	rng := rand.New(rand.NewSource(2))
	dg, err := GenerateUniformPairs(g, 5, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if dg.NumPairs() != 5 {
		t.Fatalf("NumPairs = %d", dg.NumPairs())
	}
	seen := make(map[[2]graph.NodeID]bool)
	for _, p := range dg.All() {
		u, v := p.Source, p.Target
		if u > v {
			u, v = v, u
		}
		key := [2]graph.NodeID{u, v}
		if seen[key] {
			t.Errorf("duplicate pair %v", key)
		}
		seen[key] = true
	}
	if _, err := GenerateUniformPairs(g, 1000, 1, rng); err == nil {
		t.Error("expected error for too many pairs")
	}
	small := graph.New(1, 0)
	small.AddNode("", 0, 0, 0)
	if _, err := GenerateUniformPairs(small, 1, 1, rng); err == nil {
		t.Error("expected error for single-node graph")
	}
}

// Property: generation is deterministic for a fixed seed and total flow
// equals pairs * flow.
func TestGenerateDeterminism(t *testing.T) {
	g := ringGraph(16)
	f := func(rawSeed int64, rawPairs uint8) bool {
		numPairs := int(rawPairs%5) + 1
		flow := 7.0
		a, err1 := GenerateFarApartPairs(g, numPairs, flow, rand.New(rand.NewSource(rawSeed)))
		b, err2 := GenerateFarApartPairs(g, numPairs, flow, rand.New(rand.NewSource(rawSeed)))
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(a.TotalFlow()-float64(numPairs)*flow) > 1e-9 {
			return false
		}
		for i := range a.All() {
			pa, _ := a.Pair(PairID(i))
			pb, _ := b.Pair(PairID(i))
			if pa != pb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
