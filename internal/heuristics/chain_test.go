package heuristics

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"netrecovery/internal/degrade"
	"netrecovery/internal/scenario"
)

// TestChainStages pins the fallback policy every plan entry point shares:
// stage names, levels, deadline shares, retry flags, skip reasons, the
// fallback's parameters and the stale stage's lookup order.
func TestChainStages(t *testing.T) {
	stalePlan := scenario.NewPlan("ISP")
	var solved, looked []string
	var fallback Rung
	chain := Chain{
		Primary: Rung{Algorithm: "OPT", Params: Params{OPTWorkers: 3, OPTMaxNodes: 9}},
		Solve: func(_ context.Context, r Rung) (*scenario.Plan, error) {
			solved = append(solved, r.Algorithm)
			if r.Fallback {
				fallback = r
			}
			return nil, errors.New("down")
		},
		Blocked: func(alg string) string {
			if alg == "OPT" {
				return "breaker open for OPT"
			}
			return ""
		},
		Stale: func(r Rung) *scenario.Plan {
			looked = append(looked, r.Algorithm)
			if r.Fallback {
				return stalePlan
			}
			return nil
		},
	}
	stages := chain.Stages()
	type shape struct {
		Name     string
		Level    degrade.Level
		Fraction float64
		Retry    bool
		Free     bool
		Skip     string
	}
	var got []shape
	for _, st := range stages {
		got = append(got, shape{st.Name, st.Level, st.Fraction, st.Retry, st.Free, st.Skip()})
	}
	want := []shape{
		{"primary", degrade.LevelNone, 0.6, true, false, "breaker open for OPT"},
		{"fallback_isp", degrade.LevelFallback, 0, true, false, ""},
		{"stale_cache", degrade.LevelStale, 0, false, true, ""},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stages = %+v\nwant %+v", got, want)
	}
	for _, st := range stages[:2] {
		st.Run(context.Background())
	}
	if !reflect.DeepEqual(solved, []string{"OPT", "ISP"}) {
		t.Errorf("solved %v, want OPT then ISP", solved)
	}
	if p := fallback.Params; !p.Fast || p.OPTWorkers != 3 || p.OPTMaxNodes != 0 {
		t.Errorf("fallback params = %+v, want fast ISP on the primary's workers", p)
	}
	if plan, err := stages[2].Run(context.Background()); plan != stalePlan || err != nil {
		t.Errorf("stale stage = %v, %v; want the fallback's stale plan", plan, err)
	}
	if !reflect.DeepEqual(looked, []string{"OPT", "ISP"}) {
		t.Errorf("stale lookups %v, want the primary's key, then the fallback's", looked)
	}

	// Fast ISP is its own fallback: the primary runs alone on the whole
	// deadline, and without Stale there is no stale stage.
	stages = Chain{Primary: Rung{Algorithm: "ISP", Params: Params{Fast: true}}}.Stages()
	if len(stages) != 1 || stages[0].Name != "primary" || stages[0].Fraction != 0 || stages[0].Skip != nil {
		t.Errorf("fast-ISP chain = %+v, want one unshared primary stage", stages)
	}
	stages = Chain{Primary: Rung{Algorithm: "ISP"}, Stale: chain.Stale, NoStale: "no cache"}.Stages()
	if len(stages) != 3 || stages[1].Name != "fallback_isp" || stages[2].Skip() != "no cache" {
		t.Errorf("exact-ISP chain = %+v, want primary, fallback_isp and a skipped stale stage", stages)
	}
}
