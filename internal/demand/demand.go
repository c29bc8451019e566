// Package demand models the demand graph H = (V_H, E_H) of the paper: the
// set of mission-critical source/destination pairs and their required flows.
// It also provides the demand-pair generators used by the experiments
// (far-apart pair selection with hop distance at least half the supply-graph
// diameter).
package demand

import (
	"fmt"
	"math/rand"
	"sort"

	"netrecovery/internal/graph"
)

// PairID identifies a demand pair within a Graph.
type PairID int

// InvalidPair is the sentinel for a missing pair.
const InvalidPair PairID = -1

// Pair is a single demand (s_h, t_h, d_h).
type Pair struct {
	ID             PairID
	Source, Target graph.NodeID
	Flow           float64
}

// Graph is the demand graph: an ordered collection of demand pairs. Pair IDs
// are stable across mutation of flow values; removing a pair tombstones it
// (flow zero) rather than renumbering, so all callers can key state by
// PairID for the lifetime of a recovery run.
type Graph struct {
	pairs []Pair
}

// New returns an empty demand graph.
func New() *Graph { return &Graph{} }

// Add appends a new demand pair and returns its ID. Adding a pair with
// non-positive flow or identical endpoints is an error.
func (g *Graph) Add(source, target graph.NodeID, flow float64) (PairID, error) {
	if source == target {
		return InvalidPair, fmt.Errorf("demand: source and target are both node %d", source)
	}
	if flow <= 0 {
		return InvalidPair, fmt.Errorf("demand: non-positive flow %f", flow)
	}
	id := PairID(len(g.pairs))
	g.pairs = append(g.pairs, Pair{ID: id, Source: source, Target: target, Flow: flow})
	return id, nil
}

// MustAdd is Add but panics on error; intended for experiment construction
// with known-good inputs.
func (g *Graph) MustAdd(source, target graph.NodeID, flow float64) PairID {
	id, err := g.Add(source, target, flow)
	if err != nil {
		panic(err)
	}
	return id
}

// NumPairs returns the number of pairs ever added (including fully-routed
// ones whose residual flow is zero).
func (g *Graph) NumPairs() int { return len(g.pairs) }

// Pair returns the pair with the given ID. The second result is false if the
// ID is out of range.
func (g *Graph) Pair(id PairID) (Pair, bool) {
	if id < 0 || int(id) >= len(g.pairs) {
		return Pair{}, false
	}
	return g.pairs[id], true
}

// Flow returns the residual flow of pair id (0 if the ID is invalid).
func (g *Graph) Flow(id PairID) float64 {
	p, ok := g.Pair(id)
	if !ok {
		return 0
	}
	return p.Flow
}

// SetFlow overwrites the residual flow of pair id. Negative values are
// clamped to zero.
func (g *Graph) SetFlow(id PairID, flow float64) error {
	if id < 0 || int(id) >= len(g.pairs) {
		return fmt.Errorf("demand: pair %d out of range", id)
	}
	if flow < 0 {
		flow = 0
	}
	g.pairs[id].Flow = flow
	return nil
}

// Reduce subtracts amount from the residual flow of pair id, clamping at
// zero, and returns the new residual flow.
func (g *Graph) Reduce(id PairID, amount float64) (float64, error) {
	p, ok := g.Pair(id)
	if !ok {
		return 0, fmt.Errorf("demand: pair %d out of range", id)
	}
	next := p.Flow - amount
	if next < 0 {
		next = 0
	}
	g.pairs[id].Flow = next
	return next, nil
}

// Active returns the pairs with strictly positive residual flow, in ID order.
func (g *Graph) Active() []Pair {
	var out []Pair
	for _, p := range g.pairs {
		if p.Flow > flowEpsilon {
			out = append(out, p)
		}
	}
	return out
}

// ActiveInto appends the pairs with strictly positive residual flow, in ID
// order, to buf[:0] and returns the result. Hot paths use it instead of
// Active to reuse one buffer across calls; the returned slice aliases buf
// and is invalidated by the next ActiveInto call with the same buffer.
func (g *Graph) ActiveInto(buf []Pair) []Pair {
	buf = buf[:0]
	for _, p := range g.pairs {
		if p.Flow > flowEpsilon {
			buf = append(buf, p)
		}
	}
	return buf
}

// All returns every pair ever added, including zero-flow ones, in ID order.
func (g *Graph) All() []Pair {
	out := make([]Pair, len(g.pairs))
	copy(out, g.pairs)
	return out
}

// TotalFlow returns the total residual demand.
func (g *Graph) TotalFlow() float64 {
	total := 0.0
	for _, p := range g.pairs {
		total += p.Flow
	}
	return total
}

// Empty reports whether every pair has been fully satisfied (or none exist).
func (g *Graph) Empty() bool {
	for _, p := range g.pairs {
		if p.Flow > flowEpsilon {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the demand graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{pairs: make([]Pair, len(g.pairs))}
	copy(c.pairs, g.pairs)
	return c
}

// String summarises the demand graph.
func (g *Graph) String() string {
	return fmt.Sprintf("demand{pairs: %d, active: %d, flow: %.1f}", len(g.pairs), len(g.Active()), g.TotalFlow())
}

const flowEpsilon = 1e-9

// GenerateFarApartPairs builds a demand graph with numPairs pairs whose
// endpoints are at hop distance of at least half the supply-graph diameter
// (the selection rule of §VII-A), each with the given flow. Pairs are chosen
// uniformly at random among eligible candidates using rng; endpoints may be
// reused across pairs but a pair (ordered-insensitively) is never duplicated.
// It returns an error if the graph has fewer eligible pairs than requested.
func GenerateFarApartPairs(g *graph.Graph, numPairs int, flow float64, rng *rand.Rand) (*Graph, error) {
	if numPairs <= 0 {
		return New(), nil
	}
	minDist := g.Diameter() / 2
	type cand struct{ u, v graph.NodeID }
	var candidates []cand
	for u := 0; u < g.NumNodes(); u++ {
		dist := g.BFSDistances(graph.NodeID(u), nil)
		for v := u + 1; v < g.NumNodes(); v++ {
			if dist[v] >= minDist && dist[v] > 0 {
				candidates = append(candidates, cand{graph.NodeID(u), graph.NodeID(v)})
			}
		}
	}
	if len(candidates) < numPairs {
		return nil, fmt.Errorf("demand: only %d candidate pairs at distance >= %d, need %d", len(candidates), minDist, numPairs)
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	dg := New()
	for i := 0; i < numPairs; i++ {
		dg.MustAdd(candidates[i].u, candidates[i].v, flow)
	}
	return dg, nil
}

// GenerateUniformPairs builds a demand graph with numPairs distinct random
// pairs with the given flow, without any distance constraint.
func GenerateUniformPairs(g *graph.Graph, numPairs int, flow float64, rng *rand.Rand) (*Graph, error) {
	n := g.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("demand: graph has %d nodes, need at least 2", n)
	}
	maxPairs := n * (n - 1) / 2
	if numPairs > maxPairs {
		return nil, fmt.Errorf("demand: %d pairs requested but only %d exist", numPairs, maxPairs)
	}
	seen := make(map[[2]graph.NodeID]bool)
	dg := New()
	for dg.NumPairs() < numPairs {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]graph.NodeID{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		dg.MustAdd(u, v, flow)
	}
	return dg, nil
}

// SortedByFlowDesc returns the active pairs sorted by decreasing flow,
// breaking ties by pair ID (the ordering used by the SRT heuristic).
func (g *Graph) SortedByFlowDesc() []Pair {
	pairs := g.Active()
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Flow != pairs[j].Flow {
			return pairs[i].Flow > pairs[j].Flow
		}
		return pairs[i].ID < pairs[j].ID
	})
	return pairs
}
