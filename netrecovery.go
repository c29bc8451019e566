// Package netrecovery is the public facade of the network-recovery library,
// a reproduction of "Network recovery after massive failures" (Bartolini,
// Ciavarella, La Porta, Silvestri — DSN 2016).
//
// The library answers one question: after a large-scale disruption of a
// communication network, which broken nodes and links should be repaired so
// that a set of mission-critical demand flows can be routed, at minimum
// repair cost? The primary algorithm is ISP (Iterative Split and Prune); the
// package also exposes the paper's baselines (SRT, GRD-COM, GRD-NC, OPT,
// ALL) behind a uniform interface.
//
// Typical usage:
//
//	net := netrecovery.BellCanada()                  // 1. build a network
//	net.AddDemand("Victoria", "Halifax", 10)         // 2. add demand flows
//	net.ApplyGeographicDisruption(netrecovery.DisruptionConfig{Variance: 40, Seed: 1})
//	sc := net.Snapshot()                             // 3. freeze a Scenario
//	planner := netrecovery.NewPlanner(               // 4. configure a Planner
//		netrecovery.WithAlgorithm(netrecovery.ISP),
//	)
//	plan, err := planner.Plan(ctx, sc)               // 5. solve
//	if err != nil { ... }
//	fmt.Println(plan.Summary())
//
// A Network is the mutable builder; Snapshot freezes it into an immutable
// Scenario that is safe to share across goroutines and to solve while the
// source network keeps mutating. A Planner is configured once with
// functional options (WithAlgorithm, WithFastISP, WithOPTBudget,
// WithParallelism, WithProgress, WithSchedule, WithCache) and reused for
// any number of concurrent Plan calls. Additional algorithms plug in
// through RegisterSolver.
//
// Scenarios are content-addressable: Fingerprint returns a stable 256-bit
// hash of everything a solver reads, and WithCache(NewPlanCache(...))
// deduplicates Plan calls by that hash — the same machinery behind the
// cmd/nrserved HTTP daemon, which serves plans over a coalescing
// content-addressed cache.
//
// # API stability
//
// The Scenario / Planner surface is the stable API. The v1 entry points
// that predate it (Recover, RecoverWithOptions, RecoverContext,
// Plan.ScheduleProgressively and the zero-coordinate epicentre) were
// removed in v2; the README maps each one to its Planner form.
//
// The heavy lifting lives in the internal packages; this package only wires
// them together behind a stable API.
package netrecovery

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

// Algorithm selects a recovery algorithm.
type Algorithm string

// Available algorithms.
const (
	// ISP is the paper's Iterative Split and Prune heuristic (recommended).
	ISP Algorithm = "ISP"
	// OPT is the exact MILP solved by branch and bound (small instances).
	OPT Algorithm = "OPT"
	// SRT is the shortest-path repair heuristic.
	SRT Algorithm = "SRT"
	// GreedyCommit and GreedyNoCommit are the knapsack-style heuristics.
	GreedyCommit   Algorithm = "GRD-COM"
	GreedyNoCommit Algorithm = "GRD-NC"
	// All repairs every broken element.
	All Algorithm = "ALL"
)

// Algorithms lists every available algorithm in presentation order.
func Algorithms() []Algorithm {
	out := make([]Algorithm, 0, len(heuristics.Names()))
	for _, n := range heuristics.Names() {
		out = append(out, Algorithm(n))
	}
	return out
}

// Network is a supply network together with its demand and disruption
// state: the mutable builder of Scenario snapshots. Build one with New or
// one of the topology constructors, add demands, apply a disruption, then
// call Snapshot and hand the scenario to a Planner.
//
// A Network is safe for concurrent use: mutators and snapshotting are
// serialised by an internal lock. Solvers never see the live network — they
// operate on immutable snapshots.
type Network struct {
	mu        sync.RWMutex
	graph     *graph.Graph
	demands   *demand.Graph
	broken    disruption.Disruption
	nodeNames map[string]graph.NodeID
}

// New returns an empty network.
func New() *Network {
	return &Network{
		graph:     graph.New(0, 0),
		demands:   demand.New(),
		broken:    disruption.NewDisruption(),
		nodeNames: make(map[string]graph.NodeID),
	}
}

// wrap builds a Network around an existing supply graph.
func wrap(g *graph.Graph) *Network {
	n := &Network{
		graph:     g,
		demands:   demand.New(),
		broken:    disruption.NewDisruption(),
		nodeNames: make(map[string]graph.NodeID, g.NumNodes()),
	}
	for _, node := range g.Nodes() {
		if node.Name != "" {
			n.nodeNames[node.Name] = node.ID
		}
	}
	return n
}

// BellCanada returns the 48-node Bell-Canada-like topology used in the
// paper's first evaluation scenario.
func BellCanada() *Network { return wrap(topology.BellCanada()) }

// Grid returns a rows x cols grid network with the given uniform link
// capacity and unit repair costs.
func Grid(rows, cols int, capacity float64) (*Network, error) {
	g, err := topology.Grid(rows, cols, topology.DefaultConfig(capacity))
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// ErdosRenyi returns a random G(n, p) network with the given uniform link
// capacity and unit repair costs.
func ErdosRenyi(n int, p float64, capacity float64, seed int64) (*Network, error) {
	g, err := topology.ErdosRenyi(n, p, topology.DefaultConfig(capacity), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return wrap(g), nil
}

// CAIDALike returns an 825-node router-level topology mimicking the CAIDA
// AS28717 giant component used in the paper's third scenario.
func CAIDALike(capacity float64, seed int64) *Network {
	return wrap(topology.CAIDALike(topology.DefaultConfig(capacity), rand.New(rand.NewSource(seed))))
}

// AddNode adds a node and returns its ID. Names must be unique when used
// with the name-based helpers.
func (n *Network) AddNode(name string, x, y, repairCost float64) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.graph.AddNode(name, x, y, repairCost)
	if name != "" {
		n.nodeNames[name] = id
	}
	return int(id)
}

// AddLink adds an undirected link between two node IDs.
func (n *Network) AddLink(from, to int, capacity, repairCost float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, err := n.graph.AddEdge(graph.NodeID(from), graph.NodeID(to), capacity, repairCost)
	return err
}

// NumNodes and NumLinks report the supply-network size.
func (n *Network) NumNodes() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.graph.NumNodes()
}

// NumLinks reports the number of links of the supply network.
func (n *Network) NumLinks() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.graph.NumEdges()
}

// NodeID resolves a node name to its ID.
func (n *Network) NodeID(name string) (int, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	id, ok := n.nodeNames[name]
	return int(id), ok
}

// AddDemand adds a demand flow between two named nodes.
func (n *Network) AddDemand(source, target string, flowUnits float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.nodeNames[source]
	if !ok {
		return fmt.Errorf("netrecovery: unknown node %q", source)
	}
	t, ok := n.nodeNames[target]
	if !ok {
		return fmt.Errorf("netrecovery: unknown node %q", target)
	}
	_, err := n.demands.Add(s, t, flowUnits)
	return err
}

// AddDemandByID adds a demand flow between two node IDs.
func (n *Network) AddDemandByID(source, target int, flowUnits float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, err := n.demands.Add(graph.NodeID(source), graph.NodeID(target), flowUnits)
	return err
}

// AddFarApartDemands adds numPairs demands of flowUnits each between nodes
// at hop distance of at least half the network diameter (the paper's demand
// selection rule).
func (n *Network) AddFarApartDemands(numPairs int, flowUnits float64, seed int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	dg, err := demand.GenerateFarApartPairs(n.graph, numPairs, flowUnits, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	for _, p := range dg.All() {
		if _, err := n.demands.Add(p.Source, p.Target, p.Flow); err != nil {
			return err
		}
	}
	return nil
}

// TotalDemand returns the total demand flow added so far.
func (n *Network) TotalDemand() float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.demands.TotalFlow()
}

// Epicenter pins the centre of a geographic disruption to explicit
// coordinates, the origin (0, 0) included.
type Epicenter struct {
	X, Y float64
}

// DisruptionConfig parameterises ApplyGeographicDisruption.
type DisruptionConfig struct {
	// Variance of the bi-variate Gaussian failure probability (larger =
	// wider destruction). Required.
	Variance float64
	// Epicenter, when non-nil, pins the epicentre to explicit coordinates;
	// nil means the network barycentre (the paper's setting).
	Epicenter *Epicenter
	// PeakProbability is the failure probability at the epicentre (default 1).
	PeakProbability float64
	// Seed drives the random draws.
	Seed int64
}

// ApplyGeographicDisruption breaks nodes and links according to a
// geographically-correlated bi-variate Gaussian failure model.
func (n *Network) ApplyGeographicDisruption(cfg DisruptionConfig) DisruptionReport {
	gcfg := disruption.GeographicConfig{
		Variance:        cfg.Variance,
		PeakProbability: cfg.PeakProbability,
	}
	if cfg.Epicenter != nil {
		gcfg.EpicenterX, gcfg.EpicenterY = cfg.Epicenter.X, cfg.Epicenter.Y
	} else {
		gcfg.Auto = true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	d := disruption.Geographic(n.graph, gcfg, rand.New(rand.NewSource(cfg.Seed)))
	n.mergeDisruption(d)
	return disruptionReport(d.Nodes, d.Edges)
}

// ApplyCompleteDestruction breaks every node and link.
func (n *Network) ApplyCompleteDestruction() DisruptionReport {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := disruption.Complete(n.graph)
	n.mergeDisruption(d)
	return disruptionReport(d.Nodes, d.Edges)
}

// ApplyRandomDisruption breaks each node / link independently with the given
// probabilities.
func (n *Network) ApplyRandomDisruption(pNode, pEdge float64, seed int64) DisruptionReport {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := disruption.Random(n.graph, pNode, pEdge, rand.New(rand.NewSource(seed)))
	n.mergeDisruption(d)
	return disruptionReport(d.Nodes, d.Edges)
}

// BreakNode marks a single node as broken.
func (n *Network) BreakNode(id int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.broken.Nodes[graph.NodeID(id)] = true
}

// BreakLink marks a single link as broken.
func (n *Network) BreakLink(id int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.broken.Edges[graph.EdgeID(id)] = true
}

// mergeDisruption folds d into the broken sets; callers hold n.mu.
func (n *Network) mergeDisruption(d disruption.Disruption) {
	for v := range d.Nodes {
		n.broken.Nodes[v] = true
	}
	for e := range d.Edges {
		n.broken.Edges[e] = true
	}
}

// DisruptionReport summarises a disruption: the broken-element counts and
// the broken element IDs. The ID slices are always sorted ascending —
// never map-iteration order — so reports are deterministic and safe to
// serialise, diff and use in golden tests.
//
// Note: the ID slices make the struct non-comparable with ==; compare
// reports with reflect.DeepEqual (or compare the count fields directly).
type DisruptionReport struct {
	BrokenNodes int
	BrokenEdges int
	// NodeIDs and LinkIDs are the broken element IDs in ascending order.
	NodeIDs []int
	LinkIDs []int
}

// disruptionReport builds a report from broken sets with sorted ID slices.
func disruptionReport(nodes map[graph.NodeID]bool, edges map[graph.EdgeID]bool) DisruptionReport {
	rep := DisruptionReport{
		BrokenNodes: len(nodes),
		BrokenEdges: len(edges),
		NodeIDs:     make([]int, 0, len(nodes)),
		LinkIDs:     make([]int, 0, len(edges)),
	}
	for v := range nodes {
		rep.NodeIDs = append(rep.NodeIDs, int(v))
	}
	for e := range edges {
		rep.LinkIDs = append(rep.LinkIDs, int(e))
	}
	sort.Ints(rep.NodeIDs)
	sort.Ints(rep.LinkIDs)
	return rep
}

// Broken returns the current broken nodes and links.
func (n *Network) Broken() DisruptionReport {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return disruptionReport(n.broken.Nodes, n.broken.Edges)
}

// Plan is a recovery plan produced by Planner.Plan.
type Plan struct {
	inner *scenario.Plan
	scen  *scenario.Scenario
	// stages is the progressive timeline computed when the Planner was
	// configured with WithSchedule.
	stages []RecoveryStage
	// degradation annotates a plan produced under WithDeadline.
	degradation *Degradation
}

// Algorithm returns the name of the algorithm that produced the plan.
func (p *Plan) Algorithm() string { return p.inner.Solver }

// Degradation reports how the plan was obtained when the Planner ran under
// WithDeadline: which fallback-chain stage served it and how each stage
// spent its slice of the budget. It returns nil for Planners without a
// deadline (the chain never ran).
func (p *Plan) Degradation() *Degradation { return p.degradation }

// RepairedNodes returns the IDs of the nodes to repair, and RepairedLinks
// the IDs of the links to repair.
func (p *Plan) RepairedNodes() []int {
	out := make([]int, 0, len(p.inner.RepairedNodes))
	for v := range p.inner.RepairedNodes {
		out = append(out, int(v))
	}
	sort.Ints(out)
	return out
}

// RepairedLinks returns the IDs of the links to repair.
func (p *Plan) RepairedLinks() []int {
	out := make([]int, 0, len(p.inner.RepairedEdges))
	for e := range p.inner.RepairedEdges {
		out = append(out, int(e))
	}
	sort.Ints(out)
	return out
}

// Repairs returns the number of node repairs, link repairs and their total.
func (p *Plan) Repairs() (nodes, links, total int) { return p.inner.NumRepairs() }

// Cost returns the total repair cost of the plan.
func (p *Plan) Cost() float64 { return p.inner.RepairCost(p.scen) }

// SatisfiedDemandRatio returns the fraction of the demand the plan routes
// (1 means no demand loss).
func (p *Plan) SatisfiedDemandRatio() float64 { return p.inner.SatisfactionRatio() }

// Runtime returns the wall-clock time the algorithm took.
func (p *Plan) Runtime() time.Duration { return p.inner.Runtime }

// Optimal reports whether the plan is provably optimal (OPT only).
func (p *Plan) Optimal() bool { return p.inner.Optimal }

// Verify checks the plan against the network state (capacity, conservation,
// only-broken-elements-repaired). A nil error means the plan is valid.
func (p *Plan) Verify() error { return scenario.VerifyPlan(p.scen, p.inner) }

// Summary returns a one-line human-readable description of the plan.
func (p *Plan) Summary() string {
	nodes, links, total := p.Repairs()
	return fmt.Sprintf("%s: repair %d nodes + %d links (%d total, cost %.1f), %.1f%% of demand served in %v",
		p.Algorithm(), nodes, links, total, p.Cost(), 100*p.SatisfiedDemandRatio(), p.Runtime().Round(time.Millisecond))
}
