package netrecovery_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"netrecovery"
)

// TestConcurrentPlanAndMutation is the race-detector regression test for
// the snapshot redesign: concurrent solves and mutations on one shared
// Network must be data-race free, because every solve operates on a
// deep-copied snapshot taken under the network's lock. Run with -race to
// make it meaningful.
func TestConcurrentPlanAndMutation(t *testing.T) {
	net, err := netrecovery.Grid(4, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddDemandByID(0, 15, 10); err != nil {
		t.Fatal(err)
	}
	net.ApplyCompleteDestruction()

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	planner := netrecovery.NewPlanner(netrecovery.WithAlgorithm(netrecovery.SRT))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := planner.Plan(context.Background(), net.Snapshot()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Mutators: break elements, add demands and apply disruptions while the
	// solvers run.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			net.BreakNode(i % 16)
			net.BreakLink(i % 24)
			net.ApplyRandomDisruption(0.1, 0.1, int64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := net.AddDemandByID(1, 14, 1); err != nil {
				errs <- err
				return
			}
			_ = net.Broken()
			_ = net.TotalDemand()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentSolvesOnSharedScenario is the acceptance test for scenario
// immutability: one snapshot is solved concurrently by every registered
// algorithm, several times, without any data race (solvers clone what they
// mutate and only read the shared snapshot).
func TestConcurrentSolvesOnSharedScenario(t *testing.T) {
	net, err := netrecovery.Grid(4, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddDemandByID(0, 15, 10); err != nil {
		t.Fatal(err)
	}
	if err := net.AddDemandByID(3, 12, 5); err != nil {
		t.Fatal(err)
	}
	net.ApplyRandomDisruption(0.5, 0.5, 11)
	sc := net.Snapshot()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, alg := range netrecovery.Algorithms() {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(alg netrecovery.Algorithm) {
				defer wg.Done()
				planner := netrecovery.NewPlanner(
					netrecovery.WithAlgorithm(alg),
					netrecovery.WithFastISP(),
					netrecovery.WithOPTBudget(0, 100),
				)
				plan, err := planner.Plan(context.Background(), sc)
				if err != nil {
					errs <- err
					return
				}
				if err := plan.Verify(); err != nil {
					errs <- err
				}
			}(alg)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The shared snapshot must be unchanged after all those solves.
	want := net.Broken()
	if got := sc.Broken(); !reflect.DeepEqual(got, want) {
		t.Errorf("scenario mutated by solvers: %+v, want %+v", got, want)
	}
}
