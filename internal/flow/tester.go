package flow

import (
	"math"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/lp"
	"netrecovery/internal/scenario"
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
	numEdges  int
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

// arc variable index layout: commodity-major, then edge, then direction.
func (t *RoutabilityTester) arcVar(ci int, e graph.EdgeID, forward bool) int {
	idx := 2 * (ci*t.numEdges + int(e))
	if !forward {
		idx++
	}
	return idx
}

// Row layout: capacity rows first (one per edge), then conservation rows
// (commodity-major, then node).
func (t *RoutabilityTester) capRow(e graph.EdgeID) int { return int(e) }
func (t *RoutabilityTester) consRow(ci int, v graph.NodeID) int {
	return t.numEdges + ci*t.numNodes + int(v)
}

// Check answers the routability question for the instance, like
// CheckRoutability, but reuses the tester's model and basis across calls.
func (t *RoutabilityTester) Check(in *Instance, opts Options) Result {
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
	if fullVars := 2 * in.Graph.NumEdges() * len(active); fullVars > opts.MaxLPVariables {
		t.Stats.OneShots++
		return checkRoutabilityLP(in, t.consumable(), opts)
	}
	return t.checkExact(in, active, opts)
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
		t.numEdges != in.Graph.NumEdges() || t.numNodes != in.Graph.NumNodes() ||
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
	t.numEdges = in.Graph.NumEdges()
	t.numNodes = in.Graph.NumNodes()
	t.endpoints = append(t.endpoints[:0], active...)
	t.basis = nil
	t.Stats.Rebuilds++

	prob := lp.New(lp.Minimize)
	prob.Reserve(2*t.numEdges*len(active), t.numEdges+t.numNodes*len(active))
	for range active {
		for e := 0; e < t.numEdges; e++ {
			_ = prob.AddVariable(0, "") // forward arc
			_ = prob.AddVariable(0, "") // backward arc
		}
	}
	// Capacity rows: sum of both directions over every commodity.
	terms := make([]lp.Term, 0, 2*len(active))
	for e := 0; e < t.numEdges; e++ {
		eid := graph.EdgeID(e)
		terms = terms[:0]
		for ci := range active {
			terms = append(terms,
				lp.Term{Var: t.arcVar(ci, eid, true), Coef: 1},
				lp.Term{Var: t.arcVar(ci, eid, false), Coef: 1},
			)
		}
		_ = prob.AddConstraint(terms, lp.LessEq, 0, "")
	}
	// Conservation rows: outflow - inflow per (commodity, node). Right-hand
	// sides are installed by refresh.
	for ci := range active {
		for v := 0; v < t.numNodes; v++ {
			node := graph.NodeID(v)
			terms = terms[:0]
			for _, eid := range in.Graph.AdjacentEdges(node) {
				e := in.Graph.Edge(eid)
				terms = append(terms,
					lp.Term{Var: t.arcVar(ci, eid, e.From == node), Coef: 1},
					lp.Term{Var: t.arcVar(ci, eid, e.From != node), Coef: -1},
				)
			}
			if len(terms) == 0 {
				// Isolated node: keep the row (0 = rhs) so the layout stays
				// positional; a nonzero rhs then correctly reads infeasible.
				_ = prob.AddConstraint(nil, lp.Equal, 0, "")
				continue
			}
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
		_ = t.prob.SetRHS(t.capRow(eid), c)
		up := 0.0
		if c > capacityEpsilon {
			up = inf
		}
		for ci := range active {
			_ = t.prob.SetBounds(t.arcVar(ci, eid, true), 0, up)
			_ = t.prob.SetBounds(t.arcVar(ci, eid, false), 0, up)
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
func (t *RoutabilityTester) checkExact(in *Instance, active []demand.Pair, opts Options) Result {
	if !t.sameLayout(in, active) {
		t.build(in, active)
	}
	t.refresh(active)
	t.Stats.Calls++

	lpOpts := lp.Options{Dense: opts.DenseLP}
	if t.basis != nil && !opts.DenseLP {
		lpOpts.WarmStart = t.basis
		t.Stats.WarmStarts++
	}
	sol := t.solver.Solve(t.prob, lpOpts)
	switch sol.Status {
	case lp.StatusOptimal:
		t.basis = sol.Basis
		return Result{Routable: true, Exact: true, Routing: t.extract(active, sol)}
	case lp.StatusInfeasible:
		// Keep the basis: the next call usually relaxes the instance (a
		// repair) and the dual-feasible basis remains a good start.
		return Result{Routable: false, Exact: true}
	default:
		// Iteration limit (or numerical trouble): the LP answer is unknown,
		// not "no". Fall back to the sufficient constructive test instead of
		// conflating the limit with infeasibility.
		t.basis = nil
		t.Stats.Constructive++
		return t.constructive(in)
	}
}

// extract converts the LP solution into a per-demand net edge routing,
// mirroring extractRouting for the full-edge layout.
func (t *RoutabilityTester) extract(active []demand.Pair, sol lp.Solution) scenario.Routing {
	routing := make(scenario.Routing)
	for ci, d := range active {
		for e := 0; e < t.numEdges; e++ {
			if t.capUsable[e] <= capacityEpsilon {
				continue
			}
			eid := graph.EdgeID(e)
			fwd := sol.Value(t.arcVar(ci, eid, true))
			bwd := sol.Value(t.arcVar(ci, eid, false))
			if net := fwd - bwd; math.Abs(net) > capacityEpsilon {
				routing.AddFlow(d.ID, eid, net)
			}
		}
	}
	return routing
}
