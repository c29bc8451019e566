package flow

import (
	"math"
	"math/rand"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/topology"
)

// checkRoutingServes verifies that a routing delivers each demand's full
// flow to its target and respects the instance's usable capacities.
func checkRoutingServes(t *testing.T, in *Instance, res Result) {
	t.Helper()
	if !res.Routable || res.Routing == nil {
		t.Fatalf("expected a routable result with a routing, got %+v", res.Routable)
	}
	load := res.Routing.EdgeLoad()
	for eid, l := range load {
		if l > in.Capacity(eid)+1e-6 {
			t.Errorf("edge %d overloaded: %.6f > %.6f", eid, l, in.Capacity(eid))
		}
	}
	for _, d := range in.ActiveDemands() {
		net := 0.0
		for eid, f := range res.Routing[d.ID] {
			e := in.Graph.Edge(eid)
			if e.To == d.Target {
				net += f
			}
			if e.From == d.Target {
				net -= f
			}
		}
		if math.Abs(net-d.Flow) > 1e-6 {
			t.Errorf("demand %d delivered %.6f, want %.6f", d.ID, net, d.Flow)
		}
	}
}

// TestRoutabilityTesterMatchesOneShot drives a RoutabilityTester through a
// randomised sequence of instance mutations shaped like ISP iterations
// (capacity consumption, repairs growing the usable set, occasional demand
// changes) and requires every answer to match the one-shot CheckRoutability,
// with valid routings on routable instances. It also pins the warm-start
// machinery: with an unchanged demand layout, repeat calls must reuse the
// basis instead of rebuilding.
func TestRoutabilityTesterMatchesOneShot(t *testing.T) {
	g := topology.BellCanada()
	rng := rand.New(rand.NewSource(11))
	dg, err := demand.GenerateFarApartPairs(g, 3, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	demands := dg.Active()

	// Start with every edge at partial capacity and a broken core that
	// shrinks over time, like ISP's repair list growing.
	caps := make([]float64, g.NumEdges())
	for i := range caps {
		caps[i] = g.Edge(graph.EdgeID(i)).Capacity
	}
	excludedEdges := make(map[graph.EdgeID]bool)
	for i := 0; i < g.NumEdges(); i += 2 {
		excludedEdges[graph.EdgeID(i)] = true
	}

	tester := NewRoutabilityTester()
	opts := Options{Mode: ModeExact}
	for step := 0; step < 40; step++ {
		in := &Instance{Graph: g, Capacities: caps, ExcludedEdges: excludedEdges, Demands: demands}
		got := tester.Check(in, opts)
		want := CheckRoutability(in, opts)
		if got.Routable != want.Routable {
			t.Fatalf("step %d: tester=%v one-shot=%v", step, got.Routable, want.Routable)
		}
		if got.Routable {
			checkRoutingServes(t, in, got)
		}

		// Mutate like an ISP iteration: repair one excluded edge, consume a
		// little capacity somewhere, occasionally resize a demand (which
		// changes the flow but not the layout).
		for eid := range excludedEdges {
			delete(excludedEdges, eid)
			break
		}
		victim := graph.EdgeID(rng.Intn(g.NumEdges()))
		if caps[victim] > 2 {
			caps[victim] -= 1
		}
		if step%7 == 3 {
			demands[rng.Intn(len(demands))].Flow *= 0.9
		}
	}
	if tester.Stats.Calls == 0 || tester.Stats.WarmStarts == 0 {
		t.Fatalf("tester never warm-started: %+v", tester.Stats)
	}
	if tester.Stats.Rebuilds != 1 {
		t.Errorf("layout unchanged throughout, want exactly 1 rebuild, got %+v", tester.Stats)
	}
}

// TestRoutabilityTesterOneShotFallback pins the layout-size guard: when the
// full-edge warm-startable model would exceed MaxLPVariables (a large graph
// with a small usable core), the tester must answer exactly via the one-shot
// usable-edge LP instead of building the oversized model.
func TestRoutabilityTesterOneShotFallback(t *testing.T) {
	g := topology.BellCanada()
	rng := rand.New(rand.NewSource(3))
	dg, err := demand.GenerateFarApartPairs(g, 2, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{Graph: g, Demands: dg.Active()}
	// Full layout needs 2 * 64 edges * 2 demands = 256 variables; cap below
	// that but above the usable-edge model so ModeExact stays on the LP.
	tester := NewRoutabilityTester()
	opts := Options{Mode: ModeExact, MaxLPVariables: 200}
	got := tester.Check(in, opts)
	want := CheckRoutability(in, Options{Mode: ModeExact})
	if got.Routable != want.Routable || !got.Exact {
		t.Fatalf("fallback answer mismatch: got=%+v want routable=%v", got, want.Routable)
	}
	if got.Routable {
		checkRoutingServes(t, in, got)
	}
	if tester.Stats.OneShots != 1 || tester.Stats.Rebuilds != 0 || tester.Stats.Calls != 0 {
		t.Errorf("expected a one-shot solve and no model build, got %+v", tester.Stats)
	}
}

// TestRoutabilityTesterRebuildsOnLayoutChange pins the rebuild trigger: a
// changed commodity list (an ISP split) must rebuild the model, and the
// answers must stay correct across the transition.
func TestRoutabilityTesterRebuildsOnLayoutChange(t *testing.T) {
	g := topology.BellCanada()
	rng := rand.New(rand.NewSource(5))
	dg, err := demand.GenerateFarApartPairs(g, 2, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	demands := dg.Active()

	tester := NewRoutabilityTester()
	opts := Options{Mode: ModeExact}
	in := &Instance{Graph: g, Demands: demands}
	if res := tester.Check(in, opts); !res.Routable {
		t.Fatal("full network must route the demands")
	}

	// "Split" one demand through an intermediate node: replace it with two
	// derived pairs, changing the commodity layout.
	split := demands[0]
	via := graph.NodeID(10)
	if via == split.Source || via == split.Target {
		via = 11
	}
	newDemands := append([]demand.Pair{}, demands[1:]...)
	newDemands = append(newDemands,
		demand.Pair{ID: 100, Source: split.Source, Target: via, Flow: split.Flow},
		demand.Pair{ID: 101, Source: via, Target: split.Target, Flow: split.Flow},
	)
	in2 := &Instance{Graph: g, Demands: newDemands}
	got := tester.Check(in2, opts)
	want := CheckRoutability(in2, opts)
	if got.Routable != want.Routable {
		t.Fatalf("post-split: tester=%v one-shot=%v", got.Routable, want.Routable)
	}
	if got.Routable {
		checkRoutingServes(t, in2, got)
	}
	if tester.Stats.Rebuilds != 2 {
		t.Errorf("want 2 rebuilds (initial + layout change), got %+v", tester.Stats)
	}
}
