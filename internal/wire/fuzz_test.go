package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
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
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
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

// FuzzPlanRequestJSON drives the request → scenario → fingerprint path with
// arbitrary bodies. Invariants: decoding and building never panic; a built
// scenario survives FromScenario → json.Marshal → decode → Build with its
// fingerprint intact; Fingerprint equals Clone().Fingerprint(); and the
// fingerprint Apply derives incrementally after repairing the first broken
// link (or node) equals a from-scratch recompute on a clone.
func FuzzPlanRequestJSON(f *testing.F) {
	grid, err := topology.Grid(5, 5, topology.DefaultConfig(10))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fuzzSeedBody(f, topology.BellCanada(), 4, 1))
	f.Add(fuzzSeedBody(f, grid, 2, 2))
	f.Add([]byte(`{"scenario":{"nodes":[{"x":0,"y":0,"repairCost":1},{"x":1,"y":0,"repairCost":-0}],"links":[{"from":0,"to":1,"capacity":5,"repairCost":2}],"demands":[{"source":0,"target":1,"flow":1e-300}],"broken_nodes":[1,1],"broken_links":[0]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodePlanRequest(data)
		if err != nil {
			return
		}
		s, err := req.Scenario.Build()
		if err != nil {
			return
		}
		fp := s.Fingerprint()

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
