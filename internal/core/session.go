package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// Session keeps warm solver state alive across successive ISP solves of
// nearby scenarios — the incremental re-planning workload where a disruption
// evolves by deltas (one more break, a completed repair, a demand change)
// and every delta triggers a re-plan.
//
// ISP is deterministic, and its per-iteration subproblems — the split LP of
// Decision (2) and the exact routability LP — are pure functions of their
// inputs (residual capacities, broken sets, working demands). The session
// memoizes those subproblem results keyed by an exact content hash of the
// full subproblem input. A re-plan after a small delta re-executes the cheap
// algorithm skeleton (prunes, bubbles, centrality, max-flows) but answers
// every recurring LP subproblem from the memo, skipping the dominant cost.
//
// Soundness: a memo hit requires the complete subproblem input to be
// byte-identical, and split LPs are solved in lp deterministic mode (a pure
// function of the problem data), so a hit returns the bit-identical value a
// cold solve would compute — warm plans are equal to cold plans by
// construction, not by luck. The only permitted divergence is the routing
// certificate of the final routability test, which may be a different
// optimal routing when earlier checks were answered from the memo; repairs,
// satisfied demand and every wire-visible plan field are unaffected (pinned
// by the session equivalence tests).
//
// A Session is not safe for concurrent use; callers serialise re-plans (the
// facade PlannerSession and the server session manager both do).
type Session struct {
	splitMemo map[[32]byte]float64
	routMemo  map[[32]byte]routEntry
	// maxEntries bounds each memo; on overflow the memo is reset wholesale
	// (epoch eviction — the memo is a performance cache, not a correctness
	// structure, and scenario trajectories cluster tightly in practice).
	maxEntries int

	stats SessionStats

	h   hash.Hash
	buf []byte
}

// routEntry is one memoized exact routability answer. The routing is shared
// across hits and must be treated as immutable (ISP only reads it).
type routEntry struct {
	routable bool
	exact    bool
	routing  scenario.Routing
}

// SessionStats counts memo activity across the session's solves.
type SessionStats struct {
	// Solves is the number of Solve calls answered by the session.
	Solves int
	// SplitHits / SplitMisses count split-LP subproblems answered from the
	// memo vs solved.
	SplitHits, SplitMisses int
	// RoutabilityHits / RoutabilityMisses count exact routability tests
	// answered from the memo vs solved.
	RoutabilityHits, RoutabilityMisses int
}

// sessionMaxEntries is the default per-memo entry bound. Entries are tens of
// bytes (split) to a few KB (routability routings); the bound keeps a
// long-lived session's footprint in the tens of MB worst case.
const sessionMaxEntries = 1 << 16

// NewSession returns an empty warm session.
func NewSession() *Session {
	return &Session{
		splitMemo:  make(map[[32]byte]float64),
		routMemo:   make(map[[32]byte]routEntry),
		maxEntries: sessionMaxEntries,
		h:          sha256.New(),
		buf:        make([]byte, 0, 4096),
	}
}

// Stats returns a snapshot of the session counters.
func (sess *Session) Stats() SessionStats { return sess.stats }

// Solve runs ISP on the scenario with the session's warm state. It is
// plan-equivalent to core.Solve on the same scenario and options.
func (sess *Session) Solve(ctx context.Context, s *scenario.Scenario, opts Options) (*scenario.Plan, Stats, error) {
	sess.stats.Solves++
	return solve(ctx, s, opts, sess)
}

// topoDigest hashes the solver-relevant topology content (node repair costs;
// edge endpoints, capacities, repair costs). It is computed once per Solve
// and folded into every memo key, so sessions never confuse subproblems of
// different topologies (solvers clone scenarios, so pointer identity is
// useless here).
func (sess *Session) topoDigest(g *graph.Graph) [32]byte {
	sess.h.Reset()
	sess.buf = sess.buf[:0]
	sess.buf = append(sess.buf, 'T')
	sess.buf = appendU64(sess.buf, uint64(g.NumNodes()))
	for _, n := range g.Nodes() {
		sess.buf = appendF64(sess.buf, n.RepairCost)
	}
	sess.buf = appendU64(sess.buf, uint64(g.NumEdges()))
	for _, e := range g.Edges() {
		sess.buf = appendU64(sess.buf, uint64(int64(e.From)))
		sess.buf = appendU64(sess.buf, uint64(int64(e.To)))
		sess.buf = appendF64(sess.buf, e.Capacity)
		sess.buf = appendF64(sess.buf, e.RepairCost)
	}
	sess.h.Write(sess.buf)
	var out [32]byte
	sess.h.Sum(out[:0])
	return out
}

// splitKey hashes the complete input of one split-LP subproblem: topology,
// residual capacities, the working demand list, the split pair and the split
// node. Options that shape the LP (the exact split mode) are implied by the
// call site.
func (st *state) splitKey(cand splitCandidate) [32]byte {
	sess := st.sess
	sess.buf = sess.buf[:0]
	sess.buf = append(sess.buf, 'S')
	sess.buf = st.appendResidual(sess.buf)
	sess.buf = st.appendDemands(sess.buf)
	sess.buf = appendU64(sess.buf, uint64(int64(cand.pair.ID)))
	sess.buf = appendU64(sess.buf, uint64(int64(cand.via)))
	return sess.sum(st.topoKey)
}

// routKey hashes the complete input of one exact routability test: topology,
// residual capacities, broken sets, the working demand list and the
// routability options.
func (st *state) routKey() [32]byte {
	sess := st.sess
	sess.buf = sess.buf[:0]
	sess.buf = append(sess.buf, 'R')
	sess.buf = st.appendResidual(sess.buf)
	// Broken sets as positional bitmaps: deterministic without sorting.
	for i := 0; i < st.scen.Supply.NumNodes(); i++ {
		sess.buf = appendBool(sess.buf, st.brokenNodes[graph.NodeID(i)])
	}
	for i := 0; i < st.scen.Supply.NumEdges(); i++ {
		sess.buf = appendBool(sess.buf, st.brokenEdges[graph.EdgeID(i)])
	}
	sess.buf = st.appendDemands(sess.buf)
	sess.buf = appendU64(sess.buf, uint64(st.opts.Routability.Mode))
	sess.buf = appendU64(sess.buf, uint64(st.opts.Routability.MaxLPVariables))
	return sess.sum(st.topoKey)
}

// appendResidual appends the residual capacity of every edge in ID order.
func (st *state) appendResidual(buf []byte) []byte {
	for i := 0; i < st.scen.Supply.NumEdges(); i++ {
		buf = appendF64(buf, st.residual[graph.EdgeID(i)])
	}
	return buf
}

// appendDemands appends the active working demand list (IDs are run-local
// but deterministic: identical trajectories assign identical IDs).
func (st *state) appendDemands(buf []byte) []byte {
	st.hashBuf = st.working.ActiveInto(st.hashBuf)
	buf = appendU64(buf, uint64(len(st.hashBuf)))
	for _, p := range st.hashBuf {
		buf = appendU64(buf, uint64(int64(p.ID)))
		buf = appendU64(buf, uint64(int64(p.Source)))
		buf = appendU64(buf, uint64(int64(p.Target)))
		buf = appendF64(buf, p.Flow)
	}
	return buf
}

// sum hashes the topology digest plus the scratch buffer.
func (sess *Session) sum(topo [32]byte) [32]byte {
	sess.h.Reset()
	sess.h.Write(topo[:])
	sess.h.Write(sess.buf)
	var out [32]byte
	sess.h.Sum(out[:0])
	return out
}

// splitAmountMemo answers the exact split subproblem from the memo, solving
// and storing on a miss.
func (st *state) splitAmountMemo(cand splitCandidate) float64 {
	key := st.splitKey(cand)
	if dx, ok := st.sess.splitMemo[key]; ok {
		st.sess.stats.SplitHits++
		return dx
	}
	st.sess.stats.SplitMisses++
	dx, err := flow.MaxSplitUsing(st.splitSolver, st.potentialInstance(), cand.pair, cand.via)
	if err != nil {
		return 0
	}
	if len(st.sess.splitMemo) >= st.sess.maxEntries {
		clear(st.sess.splitMemo)
	}
	st.sess.splitMemo[key] = dx
	return dx
}

// checkRoutabilityMemo answers the exact routability test from the memo,
// solving and storing on a miss. Only the exact mode is memoized: the auto
// mode's answer depends on instance-size heuristics already captured in the
// key, but its constructive fallback is cheap enough that memoizing it
// buys nothing.
func (st *state) checkRoutabilityMemo() flow.Result {
	key := st.routKey()
	if e, ok := st.sess.routMemo[key]; ok {
		st.sess.stats.RoutabilityHits++
		return flow.Result{Routable: e.routable, Exact: e.exact, Routing: e.routing}
	}
	st.sess.stats.RoutabilityMisses++
	res := st.tester.Check(st.workingInstance(), st.opts.Routability)
	if len(st.sess.routMemo) >= st.sess.maxEntries {
		clear(st.sess.routMemo)
	}
	st.sess.routMemo[key] = routEntry{routable: res.Routable, exact: res.Exact, routing: res.Routing}
	return res
}

// appendU64 appends v big-endian.
func appendU64(buf []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(buf, v)
}

// appendF64 appends the IEEE-754 bit pattern of f.
func appendF64(buf []byte, f float64) []byte {
	return appendU64(buf, math.Float64bits(f))
}

// appendBool appends one byte.
func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}
