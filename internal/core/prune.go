package core

import (
	"math"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
)

// pruneAll repeatedly applies the prune action (§IV-F) until no demand can
// be pruned. It returns the number of prune actions performed.
func (st *state) pruneAll() int {
	if st.opts.DisablePruning {
		return 0
	}
	count := 0
	for {
		pruned := false
		// Deterministic order: ActiveInto lists the pairs by working ID.
		st.pruneBuf = st.working.ActiveInto(st.pruneBuf)
		for _, p := range st.pruneBuf {
			if st.pruneOne(p) {
				pruned = true
				count++
				st.stats.Prunes++
			}
		}
		if !pruned {
			return count
		}
	}
}

// pruneOne attempts to prune (part of) demand pair p over a bubble of
// working paths (Theorem 3). It consumes the residual capacity the pruned
// amount uses and reduces the working demand. It reports whether any amount
// was pruned.
func (st *state) pruneOne(p demand.Pair) bool {
	if p.Flow <= epsilon {
		return false
	}
	// Both endpoints must currently work.
	if st.brokenNodes[p.Source] || st.brokenNodes[p.Target] {
		return false
	}
	bubble := st.findBubble(p)
	if bubble == nil || !bubble[p.Target] {
		return false
	}

	// Max flow from source to target restricted to the bubble's working
	// edges with residual capacities. The capacity vector is pooled across
	// prune attempts.
	caps := st.pruneCaps
	for i := range caps {
		e := st.scen.Supply.Edge(graph.EdgeID(i))
		caps[i] = 0
		if st.edgeUsableWorking(e.ID) && bubble[e.From] && bubble[e.To] {
			caps[i] = st.residual[i]
		}
	}
	value := st.scen.Supply.MaxFlowInto(p.Source, p.Target, caps, st.flowBuf, &st.ws)
	prunable := math.Min(value, p.Flow)
	if prunable <= epsilon {
		return false
	}
	// Scale the assignment to the pruned amount and commit it.
	st.commitFlow(st.flowBuf, prunable/value)
	if _, err := st.working.Reduce(p.ID, prunable); err != nil {
		return false
	}
	return true
}

// findBubble returns the bubble S_h of demand pair p (Definition 2): the set
// of nodes reachable from the source through working edges without entering
// the endpoint of any other active demand. The target is allowed (and must
// be reached for the bubble to be usable); other demand endpoints act as
// barriers, which guarantees that no conflicting demand can need the
// bubble's capacity without crossing s_h or t_h. It returns nil when the
// source itself is unusable.
func (st *state) findBubble(p demand.Pair) []bool {
	if st.brokenNodes[p.Source] {
		return nil
	}
	// Endpoints of other active demands are barriers. Both the barrier and
	// visited sets are pooled: the returned set is invalidated by the next
	// findBubble call.
	barrier := st.bubbleWall
	clear(barrier)
	st.barrierBuf = st.working.ActiveInto(st.barrierBuf)
	for _, other := range st.barrierBuf {
		if other.ID == p.ID {
			continue
		}
		barrier[other.Source] = true
		barrier[other.Target] = true
	}
	barrier[p.Source] = false
	barrier[p.Target] = false

	visited := st.bubbleSeen
	clear(visited)
	visited[p.Source] = true
	queue := append(st.bubbleQueue[:0], p.Source)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if barrier[u] {
			// Barrier nodes are not expanded (and not part of the bubble).
			continue
		}
		for _, eid := range st.scen.Supply.AdjacentEdges(u) {
			if !st.edgeUsableWorking(eid) {
				continue
			}
			v := st.scen.Supply.Edge(eid).Other(u)
			if visited[v] || barrier[v] {
				continue
			}
			visited[v] = true
			queue = append(queue, v)
		}
	}
	st.bubbleQueue = queue
	return visited
}
