package heuristics

import (
	"context"
	"runtime/debug"

	"netrecovery/internal/core"
	"netrecovery/internal/degrade"
	"netrecovery/internal/faultinject"
	"netrecovery/internal/scenario"
)

// ISPSession is a warm ISP solver for incremental re-planning: it keeps
// core.Session state (content-addressed split-LP and routability memos)
// alive across Solve calls, so successive solves of nearby scenarios — the
// same recovery run evolving by break/repair/demand deltas — answer most of
// their LP subproblems from the memo instead of re-solving them.
//
// Every solve is plan-equivalent to a cold ISP solve of the same scenario
// with the same options (see core.Session for the bit-identity argument), so
// an ISPSession is purely a latency optimisation.
//
// Unlike registry solvers, an ISPSession is stateful and NOT safe for
// concurrent use; callers serialise Solve calls (the facade's PlannerSession
// holds a mutex, the server holds one per HTTP session).
type ISPSession struct {
	sess     *core.Session
	options  core.Options
	progress ProgressFunc
	onStats  StatsFunc
}

var _ Solver = (*ISPSession)(nil)

// NewISPSession returns a warm ISP session configured like the registry's
// ISP solver would be for the same params (fast mode selects the greedy
// split configuration; OPT knobs are ignored).
func NewISPSession(p Params) *ISPSession {
	s := &ISPSession{sess: core.NewSession(), progress: p.Progress, onStats: p.OnStats}
	if p.Fast {
		s.options = core.FastOptions()
	}
	return s
}

// Name implements Solver.
func (s *ISPSession) Name() string { return core.SolverName }

// Solve implements Solver, running ISP with the session's warm state. Like
// the registry's guarded solvers it fires the solver fault-injection point
// and converts panics into typed errors — the warm memo state survives a
// recovered panic only in the parts already committed, which is safe
// because the memos are content-addressed (a re-solve recomputes what the
// interrupted solve never stored).
func (s *ISPSession) Solve(ctx context.Context, sc *scenario.Scenario) (plan *scenario.Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			plan, err = nil, degrade.Recovered("solver:"+core.SolverName+":session", r, debug.Stack())
		}
	}()
	if ferr := faultinject.Fire(ctx, faultinject.PointSolver); ferr != nil {
		return nil, ferr
	}
	opts := s.options
	if s.progress != nil {
		progress := s.progress
		opts.Progress = func(iteration, repairs int) {
			progress(ProgressEvent{
				Solver:    core.SolverName,
				Kind:      EventIteration,
				Iteration: iteration,
				Repairs:   repairs,
			})
		}
	}
	plan, stats, err := s.sess.Solve(ctx, sc, opts)
	if s.onStats != nil && err == nil {
		s.onStats(ctx, SolveStats{Solver: core.SolverName, Core: &stats})
	}
	return plan, err
}

// Stats returns the session's memo counters.
func (s *ISPSession) Stats() core.SessionStats { return s.sess.Stats() }
