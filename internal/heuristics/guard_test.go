package heuristics

import (
	"context"
	"errors"
	"testing"

	"netrecovery/internal/core"
	"netrecovery/internal/degrade"
	"netrecovery/internal/faultinject"
	"netrecovery/internal/scenario"
)

type panicky struct{}

func (panicky) Name() string { return "PANICKY" }
func (panicky) Solve(context.Context, *scenario.Scenario) (*scenario.Plan, error) {
	panic("solver bug")
}

func TestGuardConvertsPanic(t *testing.T) {
	s := Guard(panicky{})
	if s.Name() != "PANICKY" {
		t.Fatalf("Name = %q", s.Name())
	}
	_, err := s.Solve(context.Background(), diamondScenario(t, 4))
	if !degrade.IsPanic(err) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	var pe *degrade.PanicError
	if errors.As(err, &pe); pe.Op != "solver:PANICKY" {
		t.Fatalf("Op = %q", pe.Op)
	}
}

func TestGuardIdempotentAndUnwrap(t *testing.T) {
	inner := panicky{}
	g := Guard(inner)
	if Guard(g) != g {
		t.Fatal("Guard must not double-wrap")
	}
	if Unwrap(g) != Solver(inner) {
		t.Fatal("Unwrap must return the inner solver")
	}
	if Unwrap(inner) != Solver(inner) {
		t.Fatal("Unwrap of an unwrapped solver is the solver")
	}
}

func TestNewReturnsGuardedSolver(t *testing.T) {
	faultinject.Arm(faultinject.Profile{Seed: 1, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointSolver: {ErrorRate: 1},
	}})
	defer faultinject.Disarm()

	s, err := New("ISP", Params{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(context.Background(), diamondScenario(t, 4))
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want an injected error through the registry solver", err)
	}

	// Disarmed, the same solver solves normally.
	faultinject.Disarm()
	plan, err := s.Solve(context.Background(), diamondScenario(t, 4))
	if err != nil || plan == nil {
		t.Fatalf("post-disarm solve: plan=%v err=%v", plan, err)
	}
}

// TestSessionSolveGuarded: a warm ISP solver sits behind the same fault
// boundary as every registry solver — an injected error or panic stops at
// the guard (a panic carries the registry's "solver:ISP" op) before the
// memo sees the solve — and, disarmed, it solves through its memo.
func TestSessionSolveGuarded(t *testing.T) {
	faultinject.Arm(faultinject.Profile{Seed: 1, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointSolver: {ErrorRate: 1},
	}})
	defer faultinject.Disarm()

	memo := core.NewSession()
	sess := NewISPSession(Params{Fast: true}, memo)
	_, err := sess.Solve(context.Background(), diamondScenario(t, 4))
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want an injected error through the warm session", err)
	}

	faultinject.Arm(faultinject.Profile{Seed: 1, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointSolver: {PanicRate: 1},
	}})
	_, err = sess.Solve(context.Background(), diamondScenario(t, 4))
	var pe *degrade.PanicError
	if !errors.As(err, &pe) || pe.Op != "solver:ISP" {
		t.Fatalf("err = %v, want a recovered panic of op solver:ISP", err)
	}

	faultinject.Disarm()
	plan, err := sess.Solve(context.Background(), diamondScenario(t, 4))
	if err != nil || plan == nil {
		t.Fatalf("post-disarm session solve: plan=%v err=%v", plan, err)
	}
	if n := memo.Stats().Solves; n != 1 {
		t.Fatalf("memo answered %d solves, want the one past the guard", n)
	}
}
