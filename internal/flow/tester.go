package flow

import (
	"math"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/lp"
)

// RoutabilityTester runs exact routability tests with warm starts across
// calls. It is the hot-loop companion of CheckRoutability: ISP performs one
// LP-backed test per iteration, and consecutive iterations differ by a
// single repair, prune or split, so the previous optimal basis re-solves the
// next test in a handful of dual-simplex pivots instead of from scratch.
//
// To keep the LP structure (and therefore the basis) stable while the usable
// edge set evolves, the tester lays the model out over the FULL edge set of
// the supply graph: unusable arcs are fixed to zero via bounds, and repairs
// or capacity changes only touch bounds and right-hand sides. The layout is
// keyed by the commodity list (the endpoints of the active demands); any
// change to that list — a split adding derived pairs, a merge, or a prune
// fully serving a demand — triggers a transparent rebuild.
//
// A RoutabilityTester is not safe for concurrent use; each solver run owns
// one.
type RoutabilityTester struct {
	solver *lp.Solver
	prob   *lp.Problem
	basis  *lp.Basis

	g         *graph.Graph
	arcs      Arcs
	numNodes  int
	endpoints []demand.Pair // endpoint layout of the current model (Flow ignored)
	capUsable []float64     // usable capacity per edge for the current call
	residual  []float64     // constructive fallback's consumable copy of capUsable

	activeBuf []demand.Pair
	ws        graph.Workspace

	// Stats counts tester activity for diagnostics and tests.
	Stats TesterStats
}

// TesterStats counts how the tester resolved its calls.
type TesterStats struct {
	Calls    int // exact LP solves attempted on the warm-startable model
	Rebuilds int // model layouts built from scratch
	// WarmStarts counts solves that were handed the previous basis; the LP
	// solver may still fall back to a cold start internally when the basis
	// turns out stale (singular or neither primal- nor dual-feasible).
	WarmStarts   int
	Constructive int // calls answered by the constructive fallback
	OneShots     int // exact calls answered by the one-shot usable-edge LP
}

// NewRoutabilityTester returns an empty tester; the model is built lazily on
// the first exact call.
func NewRoutabilityTester() *RoutabilityTester {
	return &RoutabilityTester{solver: lp.NewSolver()}
}

// Reset returns the tester to the state of a fresh NewRoutabilityTester —
// no model, no basis, zero stats — while keeping its solver's and its own
// buffers for reuse by an unrelated solve.
func (t *RoutabilityTester) Reset() {
	t.solver.Reset()
	t.prob, t.basis, t.g = nil, nil, nil
	t.arcs, t.numNodes = Arcs{}, 0
	t.endpoints = t.endpoints[:0]
	t.capUsable = t.capUsable[:0]
	t.residual = t.residual[:0]
	t.activeBuf = t.activeBuf[:0]
	t.Stats = TesterStats{}
}

// Row layout: capacity rows first (one per edge), then conservation rows
// (commodity-major, then node).
func (t *RoutabilityTester) consRow(ci int, v graph.NodeID) int {
	return len(t.arcs.Edges) + ci*t.numNodes + int(v)
}

// Check answers the routability question for the instance, like
// CheckRoutability, but reuses the tester's model and basis across calls.
func (t *RoutabilityTester) Check(in *Instance, opts Options) Result {
	return t.check(in, opts, false)
}

// check answers a routability test: the shared preamble (active demands,
// validation, the single-commodity filter), the choice between the exact LP
// and the constructive test, and, for an exact answer, the warm-startable
// full-edge model or, when oneShot or that model is too large, a cold
// usable-edge one.
func (t *RoutabilityTester) check(in *Instance, opts Options, oneShot bool) Result {
	opts = opts.withDefaults()
	t.activeBuf = in.ActiveDemandsInto(t.activeBuf)
	active := t.activeBuf
	if len(active) == 0 {
		return Result{Routable: true, Exact: true, Routing: nil}
	}
	if err := in.Validate(); err != nil {
		return Result{Routable: false, Exact: true}
	}
	t.capUsable = in.usableInto(t.capUsable)
	if !passesSingleCommodityFilter(in.Graph, t.capUsable, active, &t.ws) {
		return Result{Routable: false, Exact: true}
	}
	useExact := opts.Mode == ModeExact
	if opts.Mode == ModeAuto {
		numVars := 2 * numUsable(t.capUsable) * len(active)
		useExact = numVars <= opts.MaxLPVariables
	}
	if !useExact {
		t.Stats.Constructive++
		return t.constructive(in)
	}
	// The warm-startable model spans the FULL edge set (so its layout stays
	// stable across repairs). On a large graph whose usable sub-network is
	// small, that layout can dwarf the usable-edge model the size guard
	// admitted; in that regime solve one-shot on the usable layout instead —
	// still exact, just without warm starts.
	if fullVars := 2 * in.Graph.NumEdges() * len(active); oneShot || fullVars > opts.MaxLPVariables {
		t.Stats.OneShots++
		prob, arcs := usableModel(in.Graph, t.capUsable, active)
		return t.answer(in, active, prob.Solve(), arcs)
	}
	return t.checkExact(in, active)
}

// consumable returns a copy of the call's usable capacities that a
// constructive router may consume.
func (t *RoutabilityTester) consumable() []float64 {
	t.residual = append(t.residual[:0], t.capUsable...)
	return t.residual
}

// constructive answers the call with the constructive router.
func (t *RoutabilityTester) constructive(in *Instance) Result {
	return constructiveResult(in.Graph, t.consumable(), in.Demands, &t.ws)
}

// sameLayout reports whether the cached model matches the instance's graph
// and commodity endpoints.
func (t *RoutabilityTester) sameLayout(in *Instance, active []demand.Pair) bool {
	if t.prob == nil || t.g != in.Graph ||
		len(t.arcs.Edges) != in.Graph.NumEdges() || t.numNodes != in.Graph.NumNodes() ||
		len(t.endpoints) != len(active) {
		return false
	}
	for i, d := range active {
		if t.endpoints[i].Source != d.Source || t.endpoints[i].Target != d.Target {
			return false
		}
	}
	return true
}

// build constructs the full-edge-layout feasibility LP for the commodity
// list. All matrix coefficients are structural (±1 incidence entries);
// capacities and demand flows enter only through bounds and right-hand
// sides, which refresh installs per call.
func (t *RoutabilityTester) build(in *Instance, active []demand.Pair) {
	t.g = in.Graph
	t.numNodes = in.Graph.NumNodes()
	t.endpoints = append(t.endpoints[:0], active...)
	t.basis = nil
	t.Stats.Rebuilds++

	numEdges := in.Graph.NumEdges()
	prob := lp.New(lp.Minimize)
	prob.Reserve(2*numEdges*len(active), numEdges+t.numNodes*len(active))
	t.arcs = AddArcs(prob, in.Graph, nil, len(active))
	// Capacity rows: sum of both directions over every commodity.
	terms := make([]lp.Term, 0, 2*len(active))
	for _, e := range t.arcs.Edges {
		terms = t.arcs.LoadTerms(terms[:0], e)
		_ = prob.AddConstraint(terms, lp.LessEq, 0, "")
	}
	// Conservation rows: outflow - inflow per (commodity, node). Right-hand
	// sides are installed by refresh. An isolated node keeps its empty row
	// (0 = rhs) so the layout stays positional; a nonzero rhs then correctly
	// reads infeasible.
	for ci := range active {
		for v := range t.numNodes {
			terms = t.arcs.BalanceTerms(terms[:0], ci, graph.NodeID(v))
			_ = prob.AddConstraint(terms, lp.Equal, 0, "")
		}
	}
	t.prob = prob
}

// refresh installs the call's usable capacities and demand flows into the
// cached model: capacity-row right-hand sides, arc bounds (unusable arcs are
// fixed to zero) and conservation right-hand sides at the endpoints.
func (t *RoutabilityTester) refresh(active []demand.Pair) {
	inf := math.Inf(1)
	for e, c := range t.capUsable {
		eid := graph.EdgeID(e)
		_ = t.prob.SetRHS(e, c)
		up := 0.0
		if c > capacityEpsilon {
			up = inf
		}
		for ci := range active {
			col := t.arcs.Arc(ci, eid)
			_ = t.prob.SetBounds(col, 0, up)
			_ = t.prob.SetBounds(col+1, 0, up)
		}
	}
	for ci, d := range active {
		for v := 0; v < t.numNodes; v++ {
			node := graph.NodeID(v)
			rhs := 0.0
			switch node {
			case d.Source:
				rhs = d.Flow
			case d.Target:
				rhs = -d.Flow
			}
			_ = t.prob.SetRHS(t.consRow(ci, node), rhs)
		}
	}
}

// checkExact solves the feasibility LP, warm-starting from the previous
// basis when the layout is unchanged.
func (t *RoutabilityTester) checkExact(in *Instance, active []demand.Pair) Result {
	if !t.sameLayout(in, active) {
		t.build(in, active)
	}
	t.refresh(active)
	t.Stats.Calls++

	if t.basis != nil {
		t.Stats.WarmStarts++
	}
	sol := t.solver.Solve(t.prob, lp.Options{WarmStart: t.basis})
	switch sol.Status {
	case lp.StatusOptimal:
		t.basis = sol.Basis
	case lp.StatusInfeasible:
		// Keep the basis: the next call usually relaxes the instance (a
		// repair) and the dual-feasible basis remains a good start.
	default:
		t.basis = nil
	}
	return t.answer(in, active, sol, t.arcs)
}

// answer turns a solve of a model laid out by arcs into the call's result.
// An iteration limit (or numerical trouble) leaves the LP answer unknown,
// not "no", so the sufficient constructive test answers instead of
// conflating the limit with infeasibility.
func (t *RoutabilityTester) answer(in *Instance, active []demand.Pair, sol lp.Solution, arcs Arcs) Result {
	switch sol.Status {
	case lp.StatusOptimal:
		return Result{Routable: true, Exact: true, Routing: arcs.Routing(sol.Values, active, t.capUsable)}
	case lp.StatusInfeasible:
		return Result{Routable: false, Exact: true}
	}
	t.Stats.Constructive++
	return t.constructive(in)
}
