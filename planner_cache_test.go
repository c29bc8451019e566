package netrecovery_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netrecovery"
	"netrecovery/internal/faultinject"
)

// cacheSolves counts the solves of the "cache-count-test" solver, and
// cacheGate, when non-nil, holds each of them until it is closed.
// Registration is global and permanent, so the solver is registered once,
// and each test resets both through useCacheSolver.
var (
	cacheSolves atomic.Int32
	cacheGate   chan struct{}
)

func init() {
	netrecovery.RegisterSolver("cache-count-test", func(netrecovery.SolverConfig) netrecovery.Solver {
		return countingSolver{solves: &cacheSolves, block: cacheGate}
	})
}

// useCacheSolver zeroes the solve count and installs gate for one test.
func useCacheSolver(t *testing.T, gate chan struct{}) {
	t.Helper()
	cacheSolves.Store(0)
	cacheGate = gate
	t.Cleanup(func() { cacheGate = nil })
}

// cacheTestNetwork builds a small disrupted network for the cache tests.
func cacheTestNetwork(t *testing.T) *netrecovery.Network {
	t.Helper()
	net, err := netrecovery.Grid(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddDemandByID(0, 8, 5); err != nil {
		t.Fatal(err)
	}
	net.ApplyRandomDisruption(0.5, 0.5, 7)
	return net
}

func TestScenarioFingerprintFacade(t *testing.T) {
	net := cacheTestNetwork(t)
	sc := net.Snapshot()
	fp := sc.Fingerprint()
	if len(fp) != 64 {
		t.Fatalf("Fingerprint() = %q, want 64 hex chars", fp)
	}
	if again := net.Snapshot().Fingerprint(); again != fp {
		t.Fatalf("two snapshots of the same state fingerprint differently: %s vs %s", fp, again)
	}
	net.BreakNode(4)
	if mutated := net.Snapshot().Fingerprint(); mutated == fp {
		t.Fatal("breaking a node did not change the fingerprint")
	}
	// The original snapshot is immutable: its fingerprint must not move.
	if after := sc.Fingerprint(); after != fp {
		t.Fatalf("snapshot fingerprint moved after source mutation: %s vs %s", fp, after)
	}
}

// TestWithCacheDeduplicates: the second Plan call for a content-identical
// snapshot is answered from the cache — identical plan, one solve.
func TestWithCacheDeduplicates(t *testing.T) {
	useCacheSolver(t, nil)
	cache := netrecovery.NewPlanCache(netrecovery.PlanCacheConfig{})
	planner := netrecovery.NewPlanner(
		netrecovery.WithAlgorithm("cache-count-test"),
		netrecovery.WithCache(cache),
	)
	net := cacheTestNetwork(t)

	p1, err := planner.Plan(context.Background(), net.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// A fresh snapshot of the same state: different pointer, same content.
	p2, err := planner.Plan(context.Background(), net.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := cacheSolves.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want 1 (cache hit)", got)
	}
	if !reflect.DeepEqual(p1.RepairedNodes(), p2.RepairedNodes()) ||
		!reflect.DeepEqual(p1.RepairedLinks(), p2.RepairedLinks()) {
		t.Fatal("cached plan differs from cold plan")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// Mutating the network changes the fingerprint: next Plan solves again.
	net.BreakLink(0)
	if _, err := planner.Plan(context.Background(), net.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := cacheSolves.Load(); got != 2 {
		t.Fatalf("mutated scenario did not re-solve: %d solves", got)
	}
}

// TestWithCacheConcurrentCoalescing: concurrent Plan calls for the same
// content trigger one solve under -race.
func TestWithCacheConcurrentCoalescing(t *testing.T) {
	release := make(chan struct{})
	useCacheSolver(t, release)
	cache := netrecovery.NewPlanCache(netrecovery.PlanCacheConfig{})
	planner := netrecovery.NewPlanner(
		netrecovery.WithAlgorithm("cache-count-test"),
		netrecovery.WithCache(cache),
	)
	sc := cacheTestNetwork(t).Snapshot()

	const K = 8
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = planner.Plan(context.Background(), sc)
		}(i)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cacheSolves.Load(); got != 1 {
		t.Fatalf("%d concurrent Plan calls ran %d solves, want 1", K, got)
	}
	st := cache.Stats()
	if st.Hits+st.Misses+st.Coalesced != K {
		t.Fatalf("stats %+v do not add up to %d calls", st, K)
	}
}

// TestWithCacheKeysOnOptions: the same scenario planned with different
// answer-relevant options does not share cache entries, while different
// parallelism does.
func TestWithCacheKeysOnOptions(t *testing.T) {
	useCacheSolver(t, nil)
	cache := netrecovery.NewPlanCache(netrecovery.PlanCacheConfig{})
	sc := cacheTestNetwork(t).Snapshot()
	plan := func(opts ...netrecovery.PlannerOption) {
		t.Helper()
		opts = append([]netrecovery.PlannerOption{
			netrecovery.WithAlgorithm("cache-count-test"),
			netrecovery.WithCache(cache),
		}, opts...)
		if _, err := netrecovery.NewPlanner(opts...).Plan(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
	plan()
	plan(netrecovery.WithFastISP()) // different options digest: new solve
	if got := cacheSolves.Load(); got != 2 {
		t.Fatalf("fast-mode plan did not key separately: %d solves, want 2", got)
	}
	plan(netrecovery.WithParallelism(4)) // parallelism is answer-invariant: hit
	if got := cacheSolves.Load(); got != 2 {
		t.Fatalf("parallelism keyed the cache: %d solves, want 2", got)
	}
}

// TestWithCacheShardFaultBypassed: a cache shard refused by an injected
// fault is bypassed with a direct solve on both facade paths — with and
// without WithDeadline — as the serving daemon does, instead of surfacing
// the cache's error.
func TestWithCacheShardFaultBypassed(t *testing.T) {
	net := cacheTestNetwork(t)
	want, err := netrecovery.NewPlanner(netrecovery.WithFastISP()).Plan(context.Background(), net.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.Profile{Seed: 5, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointCacheShard: {ErrorRate: 1},
	}})
	defer faultinject.Disarm()

	cache := netrecovery.NewPlanCache(netrecovery.PlanCacheConfig{})
	for _, tc := range []struct {
		name string
		opts []netrecovery.PlannerOption
	}{
		{"no-deadline", nil},
		{"deadline", []netrecovery.PlannerOption{netrecovery.WithDeadline(5 * time.Second)}},
	} {
		opts := append([]netrecovery.PlannerOption{netrecovery.WithFastISP(), netrecovery.WithCache(cache)}, tc.opts...)
		got, err := netrecovery.NewPlanner(opts...).Plan(context.Background(), net.Snapshot())
		if err != nil {
			t.Fatalf("%s: Plan under a cache shard fault: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got.RepairedNodes(), want.RepairedNodes()) ||
			!reflect.DeepEqual(got.RepairedLinks(), want.RepairedLinks()) {
			t.Fatalf("%s: bypassed plan differs from the uncached plan", tc.name)
		}
	}
	if st := cache.Stats(); st.Entries != 0 || st.Hits+st.Misses+st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want an untouched cache", st)
	}
}

// countingSolver counts Solve calls, optionally blocking until released,
// and repairs everything.
type countingSolver struct {
	solves *atomic.Int32
	block  chan struct{}
}

func (countingSolver) Name() string { return "cache-count-test" }

func (s countingSolver) Solve(ctx context.Context, sc *netrecovery.Scenario) (*netrecovery.PlanSpec, error) {
	s.solves.Add(1)
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &netrecovery.PlanSpec{
		RepairedNodes:   sc.BrokenNodeIDs(),
		RepairedLinks:   sc.BrokenLinkIDs(),
		SatisfiedDemand: sc.TotalDemand(),
	}, nil
}
