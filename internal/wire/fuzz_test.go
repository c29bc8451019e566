package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

// decodePlanRequest decodes a /v1/plan body the way the server does: one
// JSON value, unknown fields rejected.
func decodePlanRequest(data []byte) (PlanRequest, error) {
	var req PlanRequest
	err := decodeInto(data, &req)
	return req, err
}

// decodeInto decodes a /v1/plan body into req the way the server does.
func decodeInto(data []byte, req *PlanRequest) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// withEmptyLists copies the request's lists into new storage, nil lists as
// empty ones: a reset request keeps its storage, so lists the input leaves
// out come back empty rather than nil, which no reader of a request tells
// apart.
func withEmptyLists(req PlanRequest) PlanRequest {
	ws := &req.Scenario
	ws.Nodes = append([]Node{}, ws.Nodes...)
	ws.Links = append([]Link{}, ws.Links...)
	ws.Demands = append([]Demand{}, ws.Demands...)
	ws.BrokenNodes = append([]int{}, ws.BrokenNodes...)
	ws.BrokenLinks = append([]int{}, ws.BrokenLinks...)
	return req
}

// fuzzSeedBody renders a plan request for a damaged scenario on g.
func fuzzSeedBody(f *testing.F, g *graph.Graph, pairs int, seed int64) []byte {
	f.Helper()
	rng := rand.New(rand.NewSource(seed))
	dg, err := demand.GenerateFarApartPairs(g, pairs, 6, rng)
	if err != nil {
		f.Fatal(err)
	}
	d := disruption.Random(g, 0.15, 0.25, rng)
	s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
	body, err := json.Marshal(PlanRequest{Scenario: FromScenario("seed", s), Algorithm: "ISP", Options: SolveOptions{Fast: true}})
	if err != nil {
		f.Fatal(err)
	}
	return body
}

// g3Path is the three-node path a - b - c.
func g3Path() *graph.Graph {
	g := graph.New(3, 2)
	for i, name := range []string{"a", "b", "c"} {
		g.AddNode(name, float64(i), 0, 1)
	}
	g.AddEdge(0, 1, 10, 2)
	g.AddEdge(1, 2, 10, 2)
	return g
}

// FuzzPlanRequestJSON drives the request → scenario → fingerprint path with
// arbitrary bodies. Invariants: decoding, the wire-derived fingerprint and
// building never panic; decoding into a reset, previously used request
// reads what decoding into a new one does; whenever Build succeeds the
// wire-derived fingerprint (the server's cache key) equals the built
// scenario's; a built scenario survives FromScenario → json.Marshal →
// decode → Build with its fingerprint intact; Fingerprint equals
// Clone().Fingerprint(); and the fingerprint Apply derives incrementally
// after repairing the first broken link (or node) equals a from-scratch
// recompute on a clone.
func FuzzPlanRequestJSON(f *testing.F) {
	// Seed bodies stay under 1 KB: the engine minimises every input a seed
	// grows, and minimising inputs grown from ~10 KB Bell-Canada and 5x5
	// grid bodies took nearly all of its time.
	grid, err := topology.Grid(2, 3, topology.DefaultConfig(10))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fuzzSeedBody(f, g3Path(), 1, 1))
	f.Add(fuzzSeedBody(f, grid, 2, 2))
	f.Add([]byte(`{"scenario":{"nodes":[{"x":0,"y":0,"repairCost":1},{"x":1,"y":0,"repairCost":-0}],"links":[{"from":0,"to":1,"capacity":5,"repairCost":2}],"demands":[{"source":0,"target":1,"flow":1e-300}],"broken_nodes":[1,1],"broken_links":[0]}}`))
	used, err := decodePlanRequest(fuzzSeedBody(f, topology.BellCanada(), 4, 3))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodePlanRequest(data)
		// A copy of a decoded request: every slot holds a previous value.
		reused := withEmptyLists(used)
		reused.Reset()
		if rerr := decodeInto(data, &reused); (rerr == nil) != (err == nil) {
			t.Fatalf("decode error %v, into a reset request %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(withEmptyLists(reused), withEmptyLists(req)) {
			t.Fatalf("decoding into a reset request read %+v, into a new one %+v", reused, req)
		}
		wireFP := req.Scenario.Fingerprint()
		s, err := req.Scenario.Build()
		if err != nil {
			return
		}
		fp := s.Fingerprint()
		if wireFP != fp {
			t.Fatalf("wire-derived fingerprint %x, built scenario's %x", wireFP, fp)
		}

		body, err := json.Marshal(PlanRequest{Scenario: FromScenario(req.Scenario.Name, s), Algorithm: req.Algorithm, Options: req.Options})
		if err != nil {
			t.Fatalf("re-encoding a built scenario: %v", err)
		}
		again, err := decodePlanRequest(body)
		if err != nil {
			t.Fatalf("decoding a re-encoded request: %v\n%s", err, body)
		}
		back, err := again.Scenario.Build()
		if err != nil {
			t.Fatalf("building a re-encoded scenario: %v\n%s", err, body)
		}
		if got := back.Fingerprint(); got != fp {
			t.Fatalf("wire round trip moved the fingerprint: %x -> %x\n%s", fp, got, body)
		}
		if got := s.Clone().Fingerprint(); got != fp {
			t.Fatalf("clone fingerprint %x, original %x", got, fp)
		}

		var delta scenario.Delta
		switch {
		case len(s.BrokenEdges) > 0:
			delta = scenario.Delta{Kind: scenario.DeltaRepairLink, Edge: s.SortedBrokenEdges()[0]}
		case len(s.BrokenNodes) > 0:
			delta = scenario.Delta{Kind: scenario.DeltaRepairNode, Node: s.SortedBrokenNodes()[0]}
		default:
			return
		}
		next, err := s.Apply(delta)
		if err != nil {
			t.Fatalf("Apply(%v): %v", delta, err)
		}
		if got, want := next.Fingerprint(), next.Clone().Fingerprint(); got != want {
			t.Fatalf("Apply(%v) derived fingerprint %x, recompute %x", delta, got, want)
		}
	})
}

// FuzzPeerPlan drives the peer-fill path a requesting node runs on an
// owner's answer: decode the PeerPlanResponse as the cluster client does,
// rebuild the plan, check it against the request scenario (a fixed 4-node
// diamond), and render a plan that passes. Invariants: nothing panics, and
// every accepted plan renders to a wire.Plan that encodes.
func FuzzPeerPlan(f *testing.F) {
	ws := Scenario{
		Nodes: []Node{{Name: "a", RepairCost: 1}, {Name: "b", X: 1, RepairCost: 2}, {Name: "c", X: 1, Y: 1, RepairCost: 3}, {Name: "d", Y: 1, RepairCost: 4}},
		Links: []Link{
			{From: 0, To: 1, Capacity: 10, RepairCost: 1},
			{From: 1, To: 2, Capacity: 10, RepairCost: 2},
			{From: 2, To: 3, Capacity: 10, RepairCost: 3},
			{From: 3, To: 0, Capacity: 10, RepairCost: 4},
		},
		Demands:     []Demand{{Source: 0, Target: 2, Flow: 5}},
		BrokenNodes: []int{1, 3},
		BrokenLinks: []int{0, 2},
	}
	s, err := ws.Build()
	if err != nil {
		f.Fatal(err)
	}
	plan := scenario.NewPlan("ISP")
	plan.RepairedNodes[1] = true
	plan.RepairedEdges[0] = true
	plan.SatisfiedDemand, plan.TotalDemand = 5, 5
	cp := FromCachedPlan(plan)
	valid, err := json.Marshal(PeerPlanResponse{Found: true, Plan: &cp, AgeMS: 12})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(bytes.Replace(valid, []byte(`"repaired_nodes":[1]`), []byte(`"repaired_nodes":[9999]`), 1))
	f.Add(bytes.Replace(valid, []byte(cp.SatisfiedDemandBits), []byte("7ff8000000000000"), 1))
	f.Add([]byte(`{"found":true}`))
	f.Add([]byte(`{"found":false}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var pr PeerPlanResponse
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&pr); err != nil || !pr.Found {
			return
		}
		p, err := pr.BuildPlan()
		if err != nil || scenario.CheckClaims(s, p) != nil {
			return
		}
		if _, err := json.Marshal(FromPlan(s, p)); err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
	})
}
