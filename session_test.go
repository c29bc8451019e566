package netrecovery

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"netrecovery/internal/wire"
)

// wirePlanBytes encodes a plan for byte-level comparison. RuntimeMS is the
// single wall-clock field of the wire schema; it is zeroed so the comparison
// covers every answer field (repairs, routing-derived demand metrics, cost,
// fingerprint) without being trivially broken by timing.
func wirePlanBytes(t *testing.T, sc *Scenario, p *Plan) []byte {
	t.Helper()
	wp := wire.FromPlan(sc.inner, p.inner)
	wp.RuntimeMS = 0
	raw, err := json.Marshal(wp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// invariantDeltas builds a delta sequence valid for the snapshot: repair the
// first broken node, repair the first broken link (when one exists), bump a
// demand, then re-break the repaired node — the shape of an evolving
// disaster (repairs complete, demand shifts, new failures land).
func invariantDeltas(sc *Scenario) [][]Delta {
	var steps [][]Delta
	nodes := sc.BrokenNodeIDs()
	links := sc.BrokenLinkIDs()
	if len(nodes) > 0 {
		steps = append(steps, []Delta{RepairNode(nodes[0])})
	}
	if len(links) > 0 {
		steps = append(steps, []Delta{RepairLink(links[0])})
	}
	steps = append(steps, []Delta{SetDemand(0, 7)})
	if len(nodes) > 0 {
		steps = append(steps, []Delta{BreakNode(nodes[0])})
	}
	return steps
}

// TestSessionWarmMatchesColdInvariants is the session half of the delta
// property test: on every invariants topology, a warm session's re-plan
// after each delta batch must be byte-identical (via the wire encoding) to a
// cold solve of the same resulting scenario, and route the demand the same
// way.
func TestSessionWarmMatchesColdInvariants(t *testing.T) {
	for _, topology := range []string{"bell-canada", "grid", "erdos-renyi"} {
		t.Run(topology, func(t *testing.T) {
			snap := invariantNetwork(t, topology, 1).Snapshot()
			planner := NewPlanner() // ISP exact: the warm path
			sess, err := planner.NewSession(snap)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := sess.Plan(ctx); err != nil {
				t.Fatalf("initial plan: %v", err)
			}
			for i, step := range invariantDeltas(snap) {
				warm, err := sess.Apply(ctx, step...)
				if err != nil {
					t.Fatalf("step %d (%v): %v", i, step, err)
				}
				cur := sess.Scenario()
				cold, err := planner.Plan(ctx, cur)
				if err != nil {
					t.Fatalf("step %d cold solve: %v", i, err)
				}
				warmRaw := wirePlanBytes(t, cur, warm)
				coldRaw := wirePlanBytes(t, cur, cold)
				if string(warmRaw) != string(coldRaw) {
					t.Errorf("step %d (%v): warm plan diverged from cold:\nwarm %s\ncold %s",
						i, step, warmRaw, coldRaw)
				}
				if !reflect.DeepEqual(warm.inner.Routing, cold.inner.Routing) {
					t.Errorf("step %d (%v): warm routing diverged from cold", i, step)
				}
			}
			st := sess.Stats()
			if !st.Warm {
				t.Fatalf("ISP session not warm: %+v", st)
			}
			// Small topologies can resolve entirely through prune/max-flow
			// shortcuts without ever posing an LP subproblem; only the larger
			// Bell Canada instance is guaranteed memo traffic.
			if topology == "bell-canada" && st.SplitHits+st.RoutabilityHits == 0 {
				t.Errorf("warm session recorded no memo hits: %+v", st)
			}
		})
	}
}

// TestSessionRandomDeltaProperty drives a session through a random delta
// sequence on the Bell Canada invariants network, comparing each warm plan
// against a cold solve (from-scratch rebuild) of the same scenario.
func TestSessionRandomDeltaProperty(t *testing.T) {
	snap := invariantNetwork(t, "bell-canada", 2).Snapshot()
	planner := NewPlanner()
	sess, err := planner.NewSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Plan(ctx); err != nil {
		t.Fatal(err)
	}
	// A deterministic pseudo-random walk: alternate repairs, breaks and
	// demand changes, always against the session's current state so every
	// delta is valid.
	for step := 0; step < 8; step++ {
		cur := sess.Scenario()
		var d Delta
		switch step % 4 {
		case 0, 2:
			nodes := cur.BrokenNodeIDs()
			if len(nodes) == 0 {
				continue
			}
			d = RepairNode(nodes[step%len(nodes)])
		case 1:
			links := cur.BrokenLinkIDs()
			if len(links) == 0 {
				continue
			}
			d = RepairLink(links[0])
		default:
			d = SetDemand(step%2, float64(3+step))
		}
		warm, err := sess.Apply(ctx, d)
		if err != nil {
			t.Fatalf("step %d (%v): %v", step, d, err)
		}
		after := sess.Scenario()
		cold, err := planner.Plan(ctx, after)
		if err != nil {
			t.Fatal(err)
		}
		if string(wirePlanBytes(t, after, warm)) != string(wirePlanBytes(t, after, cold)) {
			t.Errorf("step %d (%v): warm plan diverged from cold rebuild", step, d)
		}
		if !reflect.DeepEqual(warm.inner.Routing, cold.inner.Routing) {
			t.Errorf("step %d (%v): warm routing diverged from cold rebuild", step, d)
		}
	}
}

func TestSessionApplyInvalidIsAtomic(t *testing.T) {
	snap := invariantNetwork(t, "grid", 1).Snapshot()
	planner := NewPlanner()
	sess, err := planner.NewSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Scenario().Fingerprint()
	broken := snap.BrokenNodeIDs()
	if len(broken) == 0 {
		t.Skip("disruption broke no nodes")
	}
	// Valid delta followed by an invalid one: nothing may stick.
	_, err = sess.Apply(context.Background(), RepairNode(broken[0]), BreakNode(broken[0]), BreakNode(broken[0]))
	if err == nil || !strings.Contains(err.Error(), "already broken") {
		t.Fatalf("Apply error = %v, want already-broken", err)
	}
	if got := sess.Scenario().Fingerprint(); got != before {
		t.Fatalf("failed Apply changed the session scenario: %s != %s", got, before)
	}
	// The session still plans.
	if _, err := sess.Plan(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSessionNonISPRunsCold(t *testing.T) {
	snap := invariantNetwork(t, "grid", 1).Snapshot()
	planner := NewPlanner(WithAlgorithm(SRT))
	sess, err := planner.NewSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sess.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm() != string(SRT) {
		t.Fatalf("algorithm = %q, want SRT", plan.Algorithm())
	}
	st := sess.Stats()
	if st.Warm {
		t.Fatalf("SRT session claims warm: %+v", st)
	}
	if st.Plans != 1 {
		t.Fatalf("plans = %d, want 1", st.Plans)
	}
}

func TestSessionNilAndInvalidInputs(t *testing.T) {
	planner := NewPlanner()
	if _, err := planner.NewSession(nil); err == nil {
		t.Fatal("NewSession(nil) succeeded")
	}
	var nilSc *Scenario
	if _, err := nilSc.Apply(RepairNode(0)); err == nil {
		t.Fatal("Apply on nil scenario succeeded")
	}
}

// TestSessionConcurrentUse exercises the session mutex under the race
// detector: concurrent Apply (demand-only deltas, always valid), Plan and
// Stats calls must serialise cleanly.
func TestSessionConcurrentUse(t *testing.T) {
	snap := invariantNetwork(t, "grid", 3).Snapshot()
	planner := NewPlanner(WithFastISP())
	sess, err := planner.NewSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Plan(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				switch g % 3 {
				case 0:
					if _, err := sess.Apply(ctx, SetDemand(0, float64(1+g+i))); err != nil {
						t.Errorf("Apply: %v", err)
					}
				case 1:
					if _, err := sess.Plan(ctx); err != nil {
						t.Errorf("Plan: %v", err)
					}
				default:
					_ = sess.Stats()
					_ = sess.Scenario().Fingerprint()
				}
			}
		}(g)
	}
	wg.Wait()
}

func ExamplePlanner_NewSession() {
	net := BellCanada()
	if err := net.AddFarApartDemands(2, 5, 1); err != nil {
		fmt.Println(err)
		return
	}
	net.ApplyGeographicDisruption(DisruptionConfig{Variance: 30, Seed: 1})
	sess, err := NewPlanner().NewSession(net.Snapshot())
	if err != nil {
		fmt.Println(err)
		return
	}
	if _, err := sess.Plan(context.Background()); err != nil {
		fmt.Println(err)
		return
	}
	broken := sess.Scenario().BrokenNodeIDs()
	plan, err := sess.Apply(context.Background(), RepairNode(broken[0]))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(plan.Algorithm() == "ISP", sess.Stats().Warm)
	// Output: true true
}
