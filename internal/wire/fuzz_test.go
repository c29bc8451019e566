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
