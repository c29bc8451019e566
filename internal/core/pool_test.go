package core

import (
	"context"
	"errors"
	"testing"

	"netrecovery/internal/degrade"
	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// TestPanickedStateNotPooled checks that a run state whose solve panicked
// never returns to statePool, while a completed run's state does return
// with its references to the run's inputs dropped. A state that has run
// keeps its sized slices in the pool, so after draining the pool a Get
// that yields non-nil slices must be a state some solve put back.
func TestPanickedStateNotPooled(t *testing.T) {
	g := graph.New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode("", float64(i), 0, 1)
	}
	g.MustAddEdge(0, 1, 10, 1)
	g.MustAddEdge(1, 2, 10, 1)
	g.MustAddEdge(2, 3, 10, 1)
	g.MustAddEdge(0, 3, 10, 1)
	dg := demand.New()
	dg.MustAdd(0, 2, 5)
	s := &scenario.Scenario{
		Supply:      g,
		Demand:      dg,
		BrokenNodes: map[graph.NodeID]bool{1: true, 3: true},
		BrokenEdges: map[graph.EdgeID]bool{},
	}
	drain := func() {
		for statePool.Get().(*state).residual != nil {
		}
	}

	drain()
	boom := Options{Progress: func(int, int) { panic("injected") }}
	_, _, err := Solve(context.Background(), s, boom)
	var perr *degrade.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("Solve with a panicking callback returned %v, want a *degrade.PanicError", err)
	}
	if st := statePool.Get().(*state); st.residual != nil {
		t.Fatalf("a state whose run panicked was pooled")
	}

	drain()
	if _, _, err := Solve(context.Background(), s, Options{}); err != nil {
		t.Fatal(err)
	}
	// Under the race detector the pool may drop the Put; a fresh state then
	// comes back and there is nothing to check.
	if st := statePool.Get().(*state); st.residual != nil &&
		(st.scen != nil || st.working != nil || st.routing != nil || st.opts.Progress != nil) {
		t.Fatalf("a pooled state still references its run's inputs")
	}
}
