package netrecovery

import (
	"netrecovery/internal/progressive"
	"netrecovery/internal/scenario"
)

// RecoveryStage is one step of a progressive recovery timeline: the repairs
// performed during the stage and the demand served once it completes.
type RecoveryStage struct {
	// Index is the 1-based stage number.
	Index int
	// RepairedNodes and RepairedLinks are the element IDs repaired in this
	// stage.
	RepairedNodes []int
	RepairedLinks []int
	// Cost is the repair cost spent in this stage.
	Cost float64
	// SatisfiedDemandRatio is the cumulative fraction of the demand served
	// after this stage completes.
	SatisfiedDemandRatio float64
}

// buildStages schedules the plan's repairs over stages with at most
// stageBudget repair cost per stage, ordering repairs so that the
// mission-critical demand is restored as early as possible (the
// progressive-recovery extension of Wang, Qiao & Yu; see the progressive
// package).
func buildStages(scen *scenario.Scenario, plan *scenario.Plan, stageBudget float64) ([]RecoveryStage, error) {
	sched, err := progressive.Build(scen, plan, stageBudget)
	if err != nil {
		return nil, err
	}
	out := make([]RecoveryStage, 0, len(sched.Stages))
	for _, stage := range sched.Stages {
		rs := RecoveryStage{
			Index:                stage.Index,
			Cost:                 stage.Cost,
			SatisfiedDemandRatio: stage.SatisfiedRatio,
		}
		for _, el := range stage.Repairs {
			if el.IsNode() {
				rs.RepairedNodes = append(rs.RepairedNodes, int(el.Node))
			} else {
				rs.RepairedLinks = append(rs.RepairedLinks, int(el.Edge))
			}
		}
		out = append(out, rs)
	}
	return out, nil
}

// Stages returns the progressive recovery timeline computed alongside the
// plan when the Planner was configured with WithSchedule, or nil otherwise.
// The returned slice is a copy; mutating it does not affect the plan.
func (p *Plan) Stages() []RecoveryStage {
	if p.stages == nil {
		return nil
	}
	return append([]RecoveryStage(nil), p.stages...)
}
