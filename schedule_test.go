package netrecovery

import (
	"testing"
)

func TestScheduleProgressively(t *testing.T) {
	net, err := Grid(3, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddDemandByID(0, 8, 10); err != nil {
		t.Fatal(err)
	}
	net.ApplyCompleteDestruction()
	plan, err := planWith(net, WithAlgorithm(ISP), WithSchedule(3))
	if err != nil {
		t.Fatal(err)
	}
	stages := plan.Stages()
	if len(stages) == 0 {
		t.Fatal("expected at least one stage")
	}
	totalScheduled := 0
	prevRatio := -1.0
	for _, stage := range stages {
		if stage.Cost > 3+1e-9 {
			t.Errorf("stage %d cost %f exceeds budget", stage.Index, stage.Cost)
		}
		if stage.SatisfiedDemandRatio < prevRatio-1e-9 {
			t.Errorf("satisfaction regressed at stage %d", stage.Index)
		}
		prevRatio = stage.SatisfiedDemandRatio
		totalScheduled += len(stage.RepairedNodes) + len(stage.RepairedLinks)
	}
	_, _, planTotal := plan.Repairs()
	if totalScheduled != planTotal {
		t.Errorf("scheduled %d elements, plan has %d", totalScheduled, planTotal)
	}
	if stages[len(stages)-1].SatisfiedDemandRatio < 1-1e-9 {
		t.Errorf("final stage ratio = %f, want 1", stages[len(stages)-1].SatisfiedDemandRatio)
	}
	if _, err := planWith(net, WithAlgorithm(ISP), WithSchedule(0)); err == nil {
		t.Error("expected error for zero budget")
	}
}
