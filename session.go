package netrecovery

import (
	"context"
	"fmt"
	"sync"

	"netrecovery/internal/core"
	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/scenario"
)

// Delta is one incremental change to a scenario: a node or link breaking or
// being repaired in the field, or a demand pair's required flow changing.
// Build deltas with the constructors (BreakNode, RepairNode, BreakLink,
// RepairLink, SetDemand) and apply them with Scenario.Apply or
// PlannerSession.Apply.
//
// Deltas never change the topology itself — nodes, links, capacities and
// repair costs are fixed for the lifetime of a recovery run. That invariant
// is what makes delta application and fingerprint maintenance O(changed
// state) instead of O(network), and what lets planner sessions keep solver
// state warm across re-plans.
type Delta struct {
	inner scenario.Delta
}

// BreakNode returns a delta marking the working node as broken.
func BreakNode(id int) Delta {
	return Delta{inner: scenario.Delta{Kind: scenario.DeltaBreakNode, Node: graph.NodeID(id)}}
}

// RepairNode returns a delta removing the node from the broken set (its
// repair completed in the field).
func RepairNode(id int) Delta {
	return Delta{inner: scenario.Delta{Kind: scenario.DeltaRepairNode, Node: graph.NodeID(id)}}
}

// BreakLink returns a delta marking the working link as broken.
func BreakLink(id int) Delta {
	return Delta{inner: scenario.Delta{Kind: scenario.DeltaBreakLink, Edge: graph.EdgeID(id)}}
}

// RepairLink returns a delta removing the link from the broken set.
func RepairLink(id int) Delta {
	return Delta{inner: scenario.Delta{Kind: scenario.DeltaRepairLink, Edge: graph.EdgeID(id)}}
}

// SetDemand returns a delta overwriting the required flow of the demand pair
// (IDs are assigned by Network.AddDemand in insertion order, starting at 0).
// Setting a flow of 0 deactivates the pair; a later SetDemand can
// reactivate it.
func SetDemand(pairID int, flow float64) Delta {
	return Delta{inner: scenario.Delta{Kind: scenario.DeltaSetDemand, Pair: demand.PairID(pairID), Flow: flow}}
}

// String summarises the delta (e.g. "repair_node(7)").
func (d Delta) String() string { return d.inner.String() }

// Apply returns a new immutable snapshot with the deltas applied in order,
// leaving the receiver unchanged. Application is atomic: if any delta is
// invalid (unknown element, breaking an already-broken element, repairing a
// working one, a negative flow) an error is returned and no snapshot is
// produced.
//
// The new snapshot shares immutable structure with its parent and carries an
// incrementally updated fingerprint, so chains of Apply calls are cheap —
// O(changed state) per step — and Fingerprint on the results is free.
func (sc *Scenario) Apply(deltas ...Delta) (*Scenario, error) {
	if sc == nil || sc.inner == nil {
		return nil, fmt.Errorf("netrecovery: Apply called on a nil scenario")
	}
	inner := make([]scenario.Delta, len(deltas))
	for i, d := range deltas {
		inner[i] = d.inner
	}
	next, err := sc.inner.Apply(inner...)
	if err != nil {
		return nil, err
	}
	return &Scenario{inner: next}, nil
}

// SessionStats is a point-in-time snapshot of a PlannerSession's counters.
type SessionStats struct {
	// Plans counts completed Plan/Apply solves (failed solves excluded).
	Plans int
	// Warm reports whether the session runs the warm ISP path. False means
	// the configured algorithm has no warm implementation and every re-plan
	// is a cold solve.
	Warm bool
	// SplitHits / SplitMisses count split-LP subproblems answered from the
	// session memo vs solved (warm sessions only).
	SplitHits, SplitMisses int
	// RoutabilityHits / RoutabilityMisses count exact routability tests
	// answered from the session memo vs solved (warm sessions only).
	RoutabilityHits, RoutabilityMisses int
}

// PlannerSession plans one evolving scenario incrementally: it owns the
// current snapshot and re-plans after each batch of deltas, keeping solver
// state warm between re-plans. For the ISP algorithm (the default), the
// session memoises the LP subproblems ISP solves — split amounts and
// routability tests — by content address, so a re-plan after a small delta
// re-solves only the subproblems the delta actually changed. Re-plans are
// plan-equivalent to cold solves of the same snapshot: the session is purely
// a latency optimisation (see EXPERIMENTS.md for measured speedups per delta
// kind).
//
// Algorithms other than ISP have no warm implementation; their sessions
// still track the evolving scenario but solve each re-plan cold
// (Stats().Warm reports which mode the session runs in).
//
// Sessions deliberately bypass any WithCache plan cache: a session IS a
// finer-grained cache over one evolving scenario, and its memos stay useful
// across deltas where a whole-plan cache would miss on every new
// fingerprint.
//
// A PlannerSession is safe for concurrent use; calls are serialised
// internally.
type PlannerSession struct {
	mu      sync.Mutex
	planner *Planner
	// memo is the warm ISP state isp solves through; both are nil when the
	// algorithm has no warm path.
	memo  *core.Session
	isp   heuristics.Solver
	cur   *scenario.Scenario
	plans int
}

// NewSession starts a planning session on the given snapshot. The session
// keeps its own reference; later deltas evolve the session's snapshot
// without affecting the caller's.
func (p *Planner) NewSession(sc *Scenario) (*PlannerSession, error) {
	if sc == nil || sc.inner == nil {
		return nil, fmt.Errorf("netrecovery: NewSession called with a nil scenario")
	}
	if err := sc.inner.Validate(); err != nil {
		return nil, err
	}
	s := &PlannerSession{planner: p, cur: sc.inner}
	if p.cfg.alg == ISP {
		s.memo = core.NewSession()
		s.isp = heuristics.NewISPSession(p.params(), s.memo)
	}
	return s, nil
}

// params assembles the registry params from the planner configuration
// (shared by Plan and NewSession so both paths configure solvers
// identically).
func (p *Planner) params() heuristics.Params {
	return heuristics.Params{
		Fast:         p.cfg.fast,
		OPTTimeLimit: p.cfg.optTimeLimit,
		OPTMaxNodes:  p.cfg.optMaxNodes,
		OPTWorkers:   p.cfg.workers,
		Progress:     p.cfg.progress,
	}
}

// Scenario returns the session's current snapshot.
func (s *PlannerSession) Scenario() *Scenario {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Scenario{inner: s.cur}
}

// Plan (re-)plans the session's current snapshot, using the warm solver
// state accumulated by earlier re-plans.
func (s *PlannerSession) Plan(ctx context.Context) (*Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.planLocked(ctx)
}

// Apply applies the deltas to the session's snapshot and re-plans the
// result. Application is atomic: on an invalid delta the session's snapshot
// is unchanged and no solve happens. On solver failure (e.g. cancellation)
// the snapshot HAS advanced — the deltas describe what happened in the
// field, which a failed solve does not undo — and a later Plan call re-plans
// it.
func (s *PlannerSession) Apply(ctx context.Context, deltas ...Delta) (*Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inner := make([]scenario.Delta, len(deltas))
	for i, d := range deltas {
		inner[i] = d.inner
	}
	next, err := s.cur.Apply(inner...)
	if err != nil {
		return nil, err
	}
	s.cur = next
	return s.planLocked(ctx)
}

// planLocked solves the current snapshot; the caller holds s.mu.
func (s *PlannerSession) planLocked(ctx context.Context) (*Plan, error) {
	solver := s.isp
	if solver == nil {
		var err error
		solver, err = heuristics.New(string(s.planner.cfg.alg), s.planner.params())
		if err != nil {
			return nil, err
		}
	}
	inner, err := solver.Solve(ctx, s.cur)
	if err != nil {
		return nil, err
	}
	s.plans++
	plan := &Plan{inner: inner, scen: s.cur}
	if s.planner.cfg.schedule {
		stages, err := buildStages(s.cur, inner, s.planner.cfg.stageBudget)
		if err != nil {
			return nil, err
		}
		plan.stages = stages
	}
	return plan, nil
}

// Stats returns a snapshot of the session counters.
func (s *PlannerSession) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{Plans: s.plans, Warm: s.memo != nil}
	if s.memo != nil {
		cs := s.memo.Stats()
		st.SplitHits = cs.SplitHits
		st.SplitMisses = cs.SplitMisses
		st.RoutabilityHits = cs.RoutabilityHits
		st.RoutabilityMisses = cs.RoutabilityMisses
	}
	return st
}
