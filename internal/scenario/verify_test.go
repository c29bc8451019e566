package scenario

import (
	"math"
	"strings"
	"testing"
)

// TestVerifyPlanReportsOneViolation: a plan whose two pairs both violate
// conservation reports the same violation on every call (pairs are walked
// in ascending ID order, not in map order).
func TestVerifyPlanReportsOneViolation(t *testing.T) {
	s := buildScenario(t)
	s.Demand.MustAdd(0, 2, 4) // pair 1
	p := NewPlan("bad")
	p.RepairedNodes[1] = true
	p.RepairedEdges[2] = true
	// Both pairs leave node 0 on edge 0 and vanish at node 1.
	p.Routing.AddFlow(0, 0, 5)
	p.Routing.AddFlow(1, 0, 4)
	texts := map[string]int{}
	for i := 0; i < 100; i++ {
		err := VerifyPlan(s, p)
		if err == nil {
			t.Fatal("VerifyPlan accepted a plan that violates conservation")
		}
		texts[err.Error()]++
	}
	if len(texts) != 1 {
		t.Fatalf("VerifyPlan gave %d different texts over 100 calls: %v", len(texts), texts)
	}
	for text := range texts {
		if !strings.HasPrefix(text, "pair 0 ") {
			t.Errorf("VerifyPlan reported %q, want pair 0's violation first", text)
		}
	}
}

// TestCheckClaims: a plan from another node is accepted only when its
// repairs are broken elements and its demand figures are finite, ordered
// and total the scenario's demand.
func TestCheckClaims(t *testing.T) {
	s := buildScenario(t)
	valid := func() *Plan {
		p := NewPlan("peer")
		p.Routing = nil
		p.RepairedNodes[1] = true
		p.RepairedEdges[2] = true
		p.SatisfiedDemand, p.TotalDemand = 5, 5
		return p
	}
	if err := CheckClaims(s, valid()); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	cases := []struct {
		name  string
		edit  func(p *Plan)
		wants string
	}{
		{"unknown node", func(p *Plan) { p.RepairedNodes[9999] = true }, "node 9999"},
		{"working edge", func(p *Plan) { p.RepairedEdges[0] = true }, "edge 0"},
		{"NaN satisfied", func(p *Plan) { p.SatisfiedDemand = math.NaN() }, "non-finite"},
		{"infinite total", func(p *Plan) { p.TotalDemand = math.Inf(1) }, "non-finite"},
		{"negative satisfied", func(p *Plan) { p.SatisfiedDemand = -1 }, "outside"},
		{"satisfied above total", func(p *Plan) { p.SatisfiedDemand = 6 }, "outside"},
		{"foreign total", func(p *Plan) { p.SatisfiedDemand, p.TotalDemand = 4, 7 }, "total demand"},
	}
	for _, tc := range cases {
		p := valid()
		tc.edit(p)
		err := CheckClaims(s, p)
		if err == nil || !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: CheckClaims = %v, want an error naming %q", tc.name, err, tc.wants)
		}
	}
}
