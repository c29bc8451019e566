package core

import (
	"math"

	"netrecovery/internal/demand"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/lp"
	"netrecovery/internal/scenario"
)

// epsilon is the tolerance under which demands, capacities and flows are
// treated as zero inside ISP.
const epsilon = 1e-7

// state is the mutable per-run state of ISP: the evolving demand graph
// H^(n), residual capacities c^(n), the broken sets V_B^(n) / E_B^(n), the
// repair list L^(n) and the routing accumulated by prune actions. Per-element
// state is dense, indexed by NodeID / EdgeID.
type state struct {
	scen *scenario.Scenario
	opts Options

	// working is the evolving demand graph H^(n); pair IDs here are local to
	// the run and mapped back to the original pairs through rootOf.
	working *demand.Graph
	// rootOf maps working-pair IDs (dense, in order of creation) to the
	// original scenario pair that the flow ultimately serves (splits create
	// derived pairs that inherit the root).
	rootOf []demand.PairID

	// residual holds c^(n): the residual capacity of every edge, reduced by
	// prune actions as demand is routed.
	residual []float64

	// brokenNodes / brokenEdges are V_B^(n) and E_B^(n): broken elements not
	// yet scheduled for repair.
	brokenNodes []bool
	brokenEdges []bool

	// repairedNodes / repairedEdges are the repair list L^(n); numRepaired
	// counts its elements.
	repairedNodes []bool
	repairedEdges []bool
	numRepaired   int

	// routing accumulates, per original pair, the signed edge flows decided
	// by prune actions and by the final routability test.
	routing scenario.Routing

	// tester runs the per-iteration exact routability tests, warm-starting
	// each LP from the previous iteration's basis.
	tester *flow.RoutabilityTester
	// splitSolver is the reusable LP solver behind the exact split LPs.
	splitSolver *lp.Solver

	// Pooled buffers for the per-iteration hot paths. Each buffer is owned
	// by exactly one call site (see the field comments) and is reused
	// across iterations; none may be retained past the call that filled it.
	ws          graph.Workspace // every max-flow and shortest-path kernel call
	capsBuf     []float64       // usableCaps
	workCaps    []float64       // workingInstance capacities
	pruneCaps   []float64       // pruneOne's bubble-restricted capacities
	flowBuf     []float64       // max-flow assignments (pruneOne, bestEffortRouting)
	bubbleSeen  []bool          // findBubble visited set
	bubbleWall  []bool          // findBubble barrier set
	bubbleQueue []graph.NodeID  // findBubble BFS queue
	pruneBuf    []demand.Pair   // pruneAll's per-round pair snapshot
	repairBuf   []demand.Pair   // repairDirectLinks' pair snapshot
	barrierBuf  []demand.Pair   // findBubble's active-pair snapshot
	rankBuf     []demand.Pair   // computeCentrality's demands, read by the split step
	splitBuf    []demand.Pair   // postSplitRoutable's post-split demands
	workBuf     []demand.Pair   // workingInstance demands
	potBuf      []demand.Pair   // potentialInstance demands
	workInst    flow.Instance   // reused Instance for workingInstance
	potInst     flow.Instance   // reused Instance for potentialInstance
	hashBuf     []demand.Pair   // session memo-key demand snapshot

	// sess is the warm cross-solve session (nil for a cold solve) and
	// topoKey the topology digest folded into its memo keys.
	sess    *Session
	topoKey [32]byte

	// stats collects per-run counters for diagnostics and tests.
	stats Stats
}

// Stats counts the actions ISP performed during a run.
type Stats struct {
	Iterations   int
	Prunes       int
	Splits       int
	NodeRepairs  int
	EdgeRepairs  int
	Fallbacks    int
	FinalRouted  bool
	HitIteration bool
	HitTimeout   bool
	// Routability reports how the per-iteration LP-backed routability tests
	// were resolved (warm starts, rebuilds, constructive fallbacks).
	Routability flow.TesterStats
}

func newState(s *scenario.Scenario, opts Options, sess *Session) *state {
	n, m := s.Supply.NumNodes(), s.Supply.NumEdges()
	st := &state{
		scen:          s,
		opts:          opts,
		sess:          sess,
		working:       demand.New(),
		residual:      make([]float64, m),
		brokenNodes:   make([]bool, n),
		brokenEdges:   make([]bool, m),
		repairedNodes: make([]bool, n),
		repairedEdges: make([]bool, m),
		routing:       make(scenario.Routing),
		tester:        flow.NewRoutabilityTester(),
		splitSolver:   lp.NewSolver(),
		capsBuf:       make([]float64, m),
		workCaps:      make([]float64, m),
		pruneCaps:     make([]float64, m),
		flowBuf:       make([]float64, m),
		bubbleSeen:    make([]bool, n),
		bubbleWall:    make([]bool, n),
	}
	for i := range st.residual {
		st.residual[i] = s.Supply.Edge(graph.EdgeID(i)).Capacity
	}
	for v, b := range s.BrokenNodes {
		st.brokenNodes[v] = b
	}
	for e, b := range s.BrokenEdges {
		st.brokenEdges[e] = b
	}
	for _, p := range s.Demand.Active() {
		st.working.MustAdd(p.Source, p.Target, p.Flow)
		st.rootOf = append(st.rootOf, p.ID)
	}
	return st
}

// repairNode moves v from the broken set to the repair list. It is a no-op
// for working or already-repaired nodes.
func (st *state) repairNode(v graph.NodeID) {
	if st.brokenNodes[v] {
		st.brokenNodes[v] = false
		st.repairedNodes[v] = true
		st.numRepaired++
		st.stats.NodeRepairs++
	}
}

// repairEdge moves e from the broken set to the repair list, and repairs its
// endpoints as well: a repaired link is only usable if both endpoints work,
// and the MinR constraint 1(c) forces delta_i >= delta_ij.
func (st *state) repairEdge(e graph.EdgeID) {
	if st.brokenEdges[e] {
		st.brokenEdges[e] = false
		st.repairedEdges[e] = true
		st.numRepaired++
		st.stats.EdgeRepairs++
	}
	edge := st.scen.Supply.Edge(e)
	st.repairNode(edge.From)
	st.repairNode(edge.To)
}

// workingInstance returns the flow instance of the currently working network
// G^(n): residual capacities with broken-and-not-repaired elements zeroed
// (unusable to every flow kernel), and the active working demands. The
// returned instance (and its capacity and demand slices) is pooled and
// invalidated by the next workingInstance call.
func (st *state) workingInstance() *flow.Instance {
	for i, c := range st.residual {
		e := st.scen.Supply.Edge(graph.EdgeID(i))
		if st.brokenEdges[i] || st.brokenNodes[e.From] || st.brokenNodes[e.To] {
			c = 0
		}
		st.workCaps[i] = c
	}
	st.workBuf = st.working.ActiveInto(st.workBuf)
	st.workInst = flow.Instance{
		Graph:      st.scen.Supply,
		Capacities: st.workCaps,
		Demands:    st.workBuf,
	}
	return &st.workInst
}

// potentialInstance returns the flow instance of the complete supply graph
// (broken elements usable) with residual capacities: the graph on which
// centrality, max-flow f* and the split LP are computed, since any element
// may still be repaired. The returned instance is pooled like
// workingInstance's.
func (st *state) potentialInstance() *flow.Instance {
	st.potBuf = st.working.ActiveInto(st.potBuf)
	st.potInst = flow.Instance{
		Graph:      st.scen.Supply,
		Capacities: st.residual,
		Demands:    st.potBuf,
	}
	return &st.potInst
}

// pathMetric returns the edge-length metric of §IV-D at the current
// iteration: [const + k^e(n) + (k^v_i(n)+k^v_j(n))/2] / c^(n)_ij, where the
// repair-cost terms vanish for elements already working or already listed
// for repair, and edges with no residual capacity are unusable. With the
// dynamic metric disabled (ablation) the metric is 1/c^(n)_ij.
func (st *state) pathMetric() graph.EdgeLength {
	constTerm := st.opts.PathMetricConstant
	return func(e graph.Edge) float64 {
		res := st.residual[e.ID]
		if res <= epsilon {
			return math.Inf(1)
		}
		if st.opts.DisableDynamicPathMetric {
			return constTerm / res
		}
		length := constTerm
		if st.brokenEdges[e.ID] {
			length += e.RepairCost
		}
		if st.brokenNodes[e.From] {
			length += st.scen.Supply.Node(e.From).RepairCost / 2
		}
		if st.brokenNodes[e.To] {
			length += st.scen.Supply.Node(e.To).RepairCost / 2
		}
		return length / res
	}
}

// edgeUsableWorking reports whether edge e is usable in G^(n) (not broken or
// already repaired, both endpoints working) with positive residual capacity.
func (st *state) edgeUsableWorking(e graph.EdgeID) bool {
	if st.brokenEdges[e] {
		return false
	}
	edge := st.scen.Supply.Edge(e)
	if st.brokenNodes[edge.From] || st.brokenNodes[edge.To] {
		return false
	}
	return st.residual[e] > epsilon
}

// commitFlow routes the flow assignment, scaled by scale, for the original
// pair behind a working pair and consumes the residual capacity it uses.
// Scaled flows under the tolerance are dropped.
func (st *state) commitFlow(workingPair demand.PairID, flows []float64, scale float64) {
	root := st.rootOf[workingPair]
	for eid, f := range flows {
		if f == 0 {
			continue
		}
		v := f * scale
		use := math.Abs(v)
		if use <= epsilon {
			continue
		}
		st.routing.AddFlow(root, graph.EdgeID(eid), v)
		st.residual[eid] -= use
		if st.residual[eid] < 0 {
			st.residual[eid] = 0
		}
	}
}

// addRouting accumulates signed edge flows for the original pair behind the
// given working pair.
func (st *state) addRouting(workingPair demand.PairID, flows map[graph.EdgeID]float64) {
	root := st.rootOf[workingPair]
	for eid, f := range flows {
		if math.Abs(f) > epsilon {
			st.routing.AddFlow(root, eid, f)
		}
	}
}

// addWorkingDemand adds (or merges into) a working demand pair with the
// given endpoints, flow and root. Merging only happens between pairs sharing
// the same root so that per-original-pair routing stays well defined.
func (st *state) addWorkingDemand(source, target graph.NodeID, flowAmount float64, root demand.PairID) {
	if flowAmount <= epsilon {
		return
	}
	for _, p := range st.working.Active() {
		if st.rootOf[p.ID] != root {
			continue
		}
		// Merge only pairs with the same orientation: merging a reversed
		// pair would change the net demand vector of the root and break the
		// routing-aggregation invariant.
		if p.Source == source && p.Target == target {
			_ = st.working.SetFlow(p.ID, p.Flow+flowAmount)
			return
		}
	}
	st.working.MustAdd(source, target, flowAmount)
	st.rootOf = append(st.rootOf, root)
}
