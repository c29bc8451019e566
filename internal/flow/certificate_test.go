package flow

import (
	"math/rand"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/topology"
)

// TestMaxSplitMatchesConstructiveCertificate: when a pair's full split over
// a via node — the pair replaced by (source, via) and (via, target), each
// carrying the pair's whole flow — routes constructively, that routing
// certifies dx = pair.Flow feasible, and the split LP must return exactly
// pair.Flow. Seeded draws over Bell-Canada (four far-apart pairs of 10
// units) and grid:5x5 (two pairs of 6), with every edge's capacity scaled
// by a random factor in [0.2, 1], pin the exactness a split that answers
// from the certificate before solving the LP relies on.
func TestMaxSplitMatchesConstructiveCertificate(t *testing.T) {
	grid, err := topology.Grid(5, 5, topology.DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		pairs int
		flow  float64
		seeds int64
	}{
		{"bell-canada", topology.BellCanada(), 4, 10, 8},
		{"grid:5x5", grid, 2, 6, 8},
	}
	ws := new(graph.Workspace)
	for _, tc := range cases {
		certified := 0
		for seed := int64(1); seed <= tc.seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			dg, err := demand.GenerateFarApartPairs(tc.g, tc.pairs, tc.flow, rng)
			if err != nil {
				t.Fatal(err)
			}
			caps := make([]float64, tc.g.NumEdges())
			for i := range caps {
				caps[i] = tc.g.Edge(graph.EdgeID(i)).Capacity * (0.2 + 0.8*rng.Float64())
			}
			in := &Instance{Graph: tc.g, Capacities: caps, Demands: dg.All()}
			for _, p := range in.Demands {
				for v := 0; v < tc.g.NumNodes(); v++ {
					via := graph.NodeID(v)
					if via == p.Source || via == p.Target {
						continue
					}
					full := make([]demand.Pair, 0, len(in.Demands)+1)
					for _, d := range in.Demands {
						if d.ID != p.ID {
							full = append(full, d)
						}
					}
					full = append(full,
						demand.Pair{ID: p.ID, Source: p.Source, Target: via, Flow: p.Flow},
						demand.Pair{ID: demand.PairID(len(in.Demands)), Source: via, Target: p.Target, Flow: p.Flow})
					if !ConstructivelyRoutable(&Instance{Graph: tc.g, Capacities: caps, Demands: full}, ws) {
						continue
					}
					certified++
					dx, err := MaxSplitUsing(nil, in, p, via)
					if err != nil {
						t.Fatalf("%s seed %d pair %d via %d: %v", tc.name, seed, p.ID, via, err)
					}
					if dx != p.Flow {
						t.Errorf("%s seed %d pair %d via %d: split LP dx = %v, certificate routes the full %v", tc.name, seed, p.ID, via, dx, p.Flow)
					}
				}
			}
		}
		if certified == 0 {
			t.Errorf("%s: no full split routed constructively; the property was not exercised", tc.name)
		}
		t.Logf("%s: %d certified full splits", tc.name, certified)
	}
}
