// Parallel branch and bound with a deterministic search trace.
//
// The search runs in synchronous best-first rounds. The coordinator owns all
// search state: the open nodes live in one heap that only it pops and pushes,
// at round barriers. Each round it pops the batchSize best open nodes — a
// deterministic selection, because nodes are ordered by (bound, id) and IDs
// are unique — and N worker goroutines claim the batch's ranks from a shared
// counter. Every worker owns its own relaxer (problem clone + reusable
// lp.Solver), so factorisations and work buffers stay thread-local, and the
// LP solves run in lp.Options.Deterministic mode, so a node's relaxation is a
// pure function of the node — not of which worker solves it after which
// history. Workers skip nodes dominated by the round-start incumbent, which
// they receive by value, and return each node's outcome, children and LP
// stats in its batch item; at the barrier the coordinator pushes the children
// and commits incumbents in rank order ("ordered incumbent acceptance").
//
// Because every decision that shapes the tree — batch composition, child
// IDs, domination checks, incumbent acceptance — depends only on
// round-barrier state and deterministic ordering, the full search trace
// (explored nodes, incumbent sequence, final plan, node count, LP work) is
// identical run to run AND across worker counts; only wall-clock varies. The
// one caveat is wall-clock limits: a search cut short by TimeLimit or a
// context deadline stops at a timing-dependent round, exactly as the
// sequential search stopped at a timing-dependent node.
package milp

import (
	"container/heap"
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netrecovery/internal/lp"
)

// batchSize is the number of open nodes selected per synchronous round. It
// is a fixed constant, NOT derived from Options.Workers: a worker-dependent
// batch would change which nodes are explored before each incumbent commit
// and break plan equality across worker counts. 32 keeps the round barrier
// amortised over tens of LP solves while bounding the best-first staleness
// (nodes within a round are selected without the round's own incumbents).
const batchSize = 32

// batchItem is one node of a round plus the outcome of its processing,
// written by exactly one worker and read by the coordinator after the
// barrier.
type batchItem struct {
	node *node
	// done is false when the context fired before any worker claimed the
	// item; the coordinator returns such nodes to the open heap.
	done bool
	// pruned marks a node dominated by the round-start incumbent (its LP
	// was skipped).
	pruned    bool
	status    lp.Status
	objective float64
	lpStats   lp.Stats
	// branchVar is the most fractional binary (-1 when the relaxation is
	// integral); values carries the integral solution for incumbent
	// acceptance at the barrier, children the two nodes of a branching.
	branchVar int
	values    []float64
	children  [2]*node
}

// round is the round-start state every worker reads: the first child ID
// reserved for the round, the open-node count once the batch was popped, and
// the incumbent committed at the last barrier.
type round struct {
	idBase    uint64
	open      int
	incumbent float64
}

// search carries the state of one Solve call. Apart from the per-worker
// relaxers, only the coordinator goroutine touches it.
type search struct {
	p        Problem
	opts     Options
	minimize bool
	tol      float64
	workers  int
	deadline time.Time

	open     nodeHeap
	relaxers []*relaxer

	// LP work summed over the solved relaxations (Solution.Stats).
	lpIters, lpRefactors, lpWarm, lpCold int64
}

func newSearch(p Problem, opts Options) *search {
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	minimize := p.LP.Sense() == lp.Minimize
	return &search{
		p:        p,
		opts:     opts,
		minimize: minimize,
		tol:      opts.Tolerance,
		workers:  workers,
		open:     nodeHeap{min: minimize},
		relaxers: make([]*relaxer, workers),
	}
}

// better reports whether objective a strictly improves on b.
func (s *search) better(a, b float64) bool {
	if s.minimize {
		return a < b-s.tol
	}
	return a > b+s.tol
}

// relaxer returns worker w's private relaxer, creating it on first use.
// Only worker w touches slot w, so no locking is needed.
func (s *search) relaxer(w int) *relaxer {
	if s.relaxers[w] == nil {
		s.relaxers[w] = newRelaxer(s.p, s.opts)
	}
	return s.relaxers[w]
}

// run executes the search and assembles the Solution.
func (s *search) run(ctx context.Context) Solution {
	start := time.Now()
	if s.opts.TimeLimit > 0 {
		s.deadline = start.Add(s.opts.TimeLimit)
	}

	incumbentObj := math.Inf(1)
	rootBound := math.Inf(-1)
	iterDropBound := math.Inf(1)
	if !s.minimize {
		incumbentObj, rootBound, iterDropBound = -incumbentObj, -rootBound, -iterDropBound
	}
	if s.opts.WarmStart != nil {
		incumbentObj = s.opts.WarmStartObjective
	}
	var incumbentValues []float64

	heap.Push(&s.open, &node{id: 0, fixed: map[int]float64{}, bound: rootBound})
	nextID := uint64(1)

	nodes := 0
	rounds := 0
	var incumbents []IncumbentEvent
	sawFeasibleRelaxation := false
	sawIterLimit := false
	hitLimit := false
	items := make([]batchItem, 0, batchSize)

	for s.open.Len() > 0 {
		if ctx.Err() != nil || nodes >= s.opts.MaxNodes || (s.opts.TimeLimit > 0 && time.Since(start) > s.opts.TimeLimit) {
			hitLimit = true
			break
		}
		limit := batchSize
		if rem := s.opts.MaxNodes - nodes; rem < limit {
			limit = rem
		}
		items = items[:0]
		for len(items) < limit && s.open.Len() > 0 {
			items = append(items, batchItem{node: heap.Pop(&s.open).(*node), branchVar: -1})
		}
		// Child IDs are reserved per rank up front (2 per node, taken or
		// not), so workers can mint them without coordination and the IDs
		// are independent of solve order.
		rd := round{idBase: nextID, open: s.open.Len(), incumbent: incumbentObj}
		nextID += 2 * uint64(len(items))
		rounds++
		s.solveBatch(ctx, items, rd)

		for i := range items {
			it := &items[i]
			if it.done && !it.pruned {
				s.addLPStats(it.lpStats)
			}
			if it.children[0] != nil {
				heap.Push(&s.open, it.children[0])
				heap.Push(&s.open, it.children[1])
			}
		}

		// Ordered commit: results are applied in rank (= best-first
		// selection) order, so the incumbent sequence does not depend on
		// which worker finished first.
		aborted := false
		for rank := range items {
			it := &items[rank]
			if !it.done {
				heap.Push(&s.open, it.node)
				aborted = true
				continue
			}
			nodes++
			if s.opts.Progress != nil && nodes%progressInterval == 0 {
				s.opts.Progress(incumbentObj, it.node.bound, nodes, false)
			}
			if it.pruned {
				continue
			}
			switch it.status {
			case lp.StatusInfeasible:
				continue
			case lp.StatusUnbounded:
				return Solution{Status: StatusUnbounded, NodesExplored: nodes,
					Stats: s.stats(nodes, rounds, incumbents)}
			case lp.StatusIterLimit:
				// The relaxation's answer is unknown, not "infeasible":
				// drop the node but remember that the search is no longer
				// exhaustive and keep the subtree's bound alive for the
				// final gap computation.
				sawIterLimit = true
				if s.minimize {
					iterDropBound = math.Min(iterDropBound, it.node.bound)
				} else {
					iterDropBound = math.Max(iterDropBound, it.node.bound)
				}
				continue
			}
			sawFeasibleRelaxation = true
			if !s.better(it.objective, incumbentObj) {
				// Dominated by an incumbent committed earlier this round
				// (the worker already applied the round-start incumbent).
				// Its children, if any were pushed, will be pruned when
				// popped.
				continue
			}
			if it.branchVar < 0 {
				incumbentObj = it.objective
				incumbentValues = it.values
				incumbents = append(incumbents, IncumbentEvent{
					Nodes:     nodes,
					Objective: incumbentObj,
					Bound:     it.node.bound,
				})
				if s.opts.Progress != nil {
					s.opts.Progress(incumbentObj, it.node.bound, nodes, true)
				}
			}
		}
		if aborted {
			hitLimit = true
			break
		}
	}

	// Best remaining bound: the better of the open-node bounds (if the
	// search stopped early) or the incumbent itself (if the tree was
	// exhausted), weakened by any subtree dropped on an LP iteration limit.
	// The heap orders primarily by bound, so its head holds the best one.
	bestBound := incumbentObj
	if s.open.Len() > 0 {
		bestBound = s.open.items[0].bound
	}
	if sawIterLimit {
		if s.minimize {
			bestBound = math.Min(bestBound, iterDropBound)
		} else {
			bestBound = math.Max(bestBound, iterDropBound)
		}
	}

	haveIncumbent := incumbentValues != nil || s.opts.WarmStart != nil
	switch {
	case !haveIncumbent && !sawFeasibleRelaxation && !hitLimit && !sawIterLimit:
		return Solution{Status: StatusInfeasible, NodesExplored: nodes,
			Stats: s.stats(nodes, rounds, incumbents)}
	case !haveIncumbent:
		return Solution{Status: StatusLimit, NodesExplored: nodes, Bound: bestBound,
			Stats: s.stats(nodes, rounds, incumbents)}
	}

	status := StatusOptimal
	if (hitLimit && s.open.Len() > 0) || sawIterLimit {
		// A drained tree with dropped subtrees is NOT a proof of
		// optimality: a better integer solution may live in a discarded
		// subtree.
		status = StatusFeasible
	}
	gap := math.Abs(incumbentObj-bestBound) / math.Max(1, math.Abs(incumbentObj))
	if status == StatusOptimal {
		gap = 0
		bestBound = incumbentObj
	}
	return Solution{
		Status:        status,
		Objective:     incumbentObj,
		Values:        incumbentValues,
		NodesExplored: nodes,
		Bound:         bestBound,
		Gap:           gap,
		Stats:         s.stats(nodes, rounds, incumbents),
	}
}

// addLPStats adds one relaxation solve to the search's LP work totals.
func (s *search) addLPStats(st lp.Stats) {
	s.lpIters += int64(st.Iterations)
	s.lpRefactors += int64(st.Refactorisations)
	if st.Warm {
		s.lpWarm++
	} else {
		s.lpCold++
	}
}

// stats assembles the Solution.Stats record (called at every exit path of
// run).
func (s *search) stats(nodes, rounds int, incumbents []IncumbentEvent) *Stats {
	return &Stats{
		Nodes:            nodes,
		Rounds:           rounds,
		LPIterations:     s.lpIters,
		Refactorisations: s.lpRefactors,
		WarmSolves:       s.lpWarm,
		ColdSolves:       s.lpCold,
		Incumbents:       incumbents,
	}
}

// solveBatch processes one round's items on up to s.workers goroutines,
// which claim ranks in order from a shared counter until the batch is
// exhausted or the context fires; unclaimed items are left !done for the
// coordinator to return to the open heap. With one worker (or a one-item
// batch) it runs inline on the coordinator.
func (s *search) solveBatch(ctx context.Context, items []batchItem, rd round) {
	var next atomic.Int64
	work := func(w int) {
		for {
			rank := int(next.Add(1) - 1)
			if rank >= len(items) {
				return
			}
			if ctx.Err() != nil || (!s.deadline.IsZero() && time.Now().After(s.deadline)) {
				return
			}
			s.processItem(w, &items[rank], rank, rd)
		}
	}
	n := min(s.workers, len(items))
	if n == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
}

// processItem solves one node's relaxation and records its outcome and
// children in the item. Every input it consults — the node, the round-start
// incumbent, the rank-derived child IDs, the round-start open-node count —
// is independent of worker identity and timing, so the item's outcome is
// too.
func (s *search) processItem(w int, it *batchItem, rank int, rd round) {
	it.done = true
	if !s.better(it.node.bound, rd.incumbent) {
		// The subtree cannot improve on the incumbent committed at the last
		// barrier: skip the LP entirely. (The sequential search solved such
		// nodes and pruned on the relaxation objective; pruning on the
		// parent bound is the same decision taken earlier.)
		it.pruned = true
		return
	}
	sol := s.relaxer(w).solve(it.node)
	it.status = sol.Status
	it.objective = sol.Objective
	it.lpStats = sol.Stats
	if sol.Status != lp.StatusOptimal {
		return
	}
	if !s.better(sol.Objective, rd.incumbent) {
		// Dominated: no children. The barrier's incumbent is at least as
		// good as the round-start one, so the coordinator reaches the same
		// verdict.
		return
	}

	// Find the most fractional binary variable.
	branchVar := -1
	worstFrac := s.tol
	for _, v := range s.p.Binary {
		val := sol.Value(v)
		frac := math.Abs(val - math.Round(val))
		if frac > worstFrac {
			worstFrac = frac
			branchVar = v
		}
	}
	it.branchVar = branchVar
	if branchVar < 0 {
		// Integral: carry the candidate to the barrier for ordered
		// acceptance. sol.Values is freshly allocated per solve, so it is
		// safe to retain.
		it.values = sol.Values
		return
	}

	// Branch: fix the variable to 0 and to 1. Both children share this
	// node's optimal basis as their warm start. Beyond the retained-basis
	// cap the children are queued without one (they cold-start if ever
	// explored) so warm-start memory stays bounded; the cap test uses only
	// round-start state plus the rank, keeping the decision deterministic.
	childBasis := sol.Basis
	if rd.open+2*rank >= warmBasisQueueCap {
		childBasis = nil
	}
	for d, fixVal := range []float64{0, 1} {
		child := &node{
			id:    rd.idBase + 2*uint64(rank) + uint64(d),
			fixed: make(map[int]float64, len(it.node.fixed)+1),
			bound: sol.Objective,
			basis: childBasis,
		}
		for k, v := range it.node.fixed {
			child.fixed[k] = v
		}
		child.fixed[branchVar] = fixVal
		it.children[d] = child
	}
}

// before reports whether n precedes m in best-first order: better bound
// first, smaller node ID on ties. Node IDs are unique, so this is a strict
// total order — the deterministic tie-break of the parallel search.
func (n *node) before(m *node, min bool) bool {
	if n.bound != m.bound {
		if min {
			return n.bound < m.bound
		}
		return n.bound > m.bound
	}
	return n.id < m.id
}

// nodeHeap is the open-node queue, a container/heap in the order defined by
// node.before.
type nodeHeap struct {
	items []*node
	min   bool
}

func (h nodeHeap) Len() int            { return len(h.items) }
func (h nodeHeap) Less(i, j int) bool  { return h.items[i].before(h.items[j], h.min) }
func (h nodeHeap) Swap(i, j int)       { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *nodeHeap) Push(x interface{}) { h.items = append(h.items, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return item
}
