package netrecovery

import (
	"strings"
	"testing"
	"time"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	net, err := Grid(3, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 9 || net.NumLinks() != 12 {
		t.Fatalf("grid size = %d nodes %d links", net.NumNodes(), net.NumLinks())
	}
	if err := net.AddDemandByID(0, 8, 10); err != nil {
		t.Fatal(err)
	}
	report := net.ApplyCompleteDestruction()
	if report.BrokenNodes != 9 || report.BrokenEdges != 12 {
		t.Fatalf("disruption = %+v", report)
	}
	plan, err := planWith(net, WithAlgorithm(ISP))
	if err != nil {
		t.Fatal(err)
	}
	if plan.SatisfiedDemandRatio() < 1-1e-9 {
		t.Errorf("satisfaction = %f", plan.SatisfiedDemandRatio())
	}
	if err := plan.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
	if _, _, total := plan.Repairs(); total == 0 {
		t.Error("expected repairs on a destroyed grid")
	}
	if !strings.Contains(plan.Summary(), "ISP") {
		t.Errorf("summary = %q", plan.Summary())
	}
	if len(plan.RepairedNodes()) == 0 || len(plan.RepairedLinks()) == 0 {
		t.Error("expected repaired node and link lists")
	}
	if plan.Cost() <= 0 {
		t.Error("expected positive repair cost")
	}
	if plan.Runtime() <= 0 {
		t.Error("expected positive runtime")
	}
}

func TestFacadeBellCanadaNamedDemands(t *testing.T) {
	net := BellCanada()
	if err := net.AddDemand("Victoria", "Halifax", 10); err != nil {
		t.Fatal(err)
	}
	if err := net.AddDemand("nowhere", "Halifax", 10); err == nil {
		t.Error("expected error for unknown node name")
	}
	if _, ok := net.NodeID("Toronto"); !ok {
		t.Error("Toronto should exist")
	}
	report := net.ApplyGeographicDisruption(DisruptionConfig{Variance: 30, Seed: 7})
	if report.BrokenNodes+report.BrokenEdges == 0 {
		t.Fatal("disruption broke nothing")
	}
	plan, err := planWith(net, WithAlgorithm(SRT))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestFacadeAllAlgorithmsOnSmallScenario(t *testing.T) {
	build := func() *Network {
		net, err := Grid(3, 3, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddDemandByID(0, 8, 10); err != nil {
			t.Fatal(err)
		}
		net.ApplyRandomDisruption(0.4, 0.4, 3)
		return net
	}
	for _, alg := range Algorithms() {
		t.Run(string(alg), func(t *testing.T) {
			net := build()
			plan, err := planWith(net, WithAlgorithm(alg), WithOPTBudget(10*time.Second, 200))
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Verify(); err != nil {
				t.Errorf("verify: %v", err)
			}
			if plan.Algorithm() != string(alg) {
				t.Errorf("algorithm = %q, want %q", plan.Algorithm(), alg)
			}
		})
	}
	net := build()
	if _, err := planWith(net, WithAlgorithm("bogus")); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

func TestFacadeManualConstruction(t *testing.T) {
	net := New()
	a := net.AddNode("a", 0, 0, 1)
	b := net.AddNode("b", 1, 0, 1)
	c := net.AddNode("c", 2, 0, 1)
	if err := net.AddLink(a, b, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink(b, c, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink(a, a, 10, 1); err == nil {
		t.Error("expected error for self loop")
	}
	if err := net.AddDemand("a", "c", 5); err != nil {
		t.Fatal(err)
	}
	if net.TotalDemand() != 5 {
		t.Errorf("TotalDemand = %f", net.TotalDemand())
	}
	net.BreakNode(b)
	net.BreakLink(0)
	if got := net.Broken(); got.BrokenNodes != 1 || got.BrokenEdges != 1 {
		t.Errorf("Broken = %+v", got)
	}
	plan, err := planWith(net, WithAlgorithm(ISP))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, total := plan.Repairs(); total != 2 {
		t.Errorf("repairs = %d, want 2", total)
	}
	if err := plan.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestFacadeFarApartDemandsAndFastISP(t *testing.T) {
	net := BellCanada()
	if err := net.AddFarApartDemands(3, 10, 5); err != nil {
		t.Fatal(err)
	}
	if net.TotalDemand() != 30 {
		t.Errorf("TotalDemand = %f, want 30", net.TotalDemand())
	}
	net.ApplyGeographicDisruption(DisruptionConfig{Variance: 40, Seed: 5})
	plan, err := planWith(net, WithAlgorithm(ISP), WithFastISP())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
	if plan.SatisfiedDemandRatio() < 1-1e-9 {
		t.Errorf("satisfaction = %f, want 1", plan.SatisfiedDemandRatio())
	}
}

func TestFacadeGenerators(t *testing.T) {
	if _, err := ErdosRenyi(30, 0.2, 100, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ErdosRenyi(0, 0.2, 100, 1); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := Grid(0, 5, 1); err == nil {
		t.Error("expected error for empty grid")
	}
	net := CAIDALike(100, 2)
	if net.NumNodes() != 825 || net.NumLinks() != 1018 {
		t.Errorf("CAIDALike size = %d/%d", net.NumNodes(), net.NumLinks())
	}
}

// TestGeographicEpicenterAtOrigin is the regression test for the
// auto-barycentre fix: an explicit epicentre at (0, 0) must be expressible
// through the Epicenter field, while a nil Epicenter means the barycentre.
func TestGeographicEpicenterAtOrigin(t *testing.T) {
	build := func() *Network {
		net := New()
		// A small cluster at the origin and a larger one far away, so the
		// barycentre is near the far cluster and an origin epicentre behaves
		// observably differently from the auto barycentre.
		net.AddNode("o1", 0, 0, 1)
		net.AddNode("o2", 1, 0, 1)
		net.AddNode("o3", 0, 1, 1)
		net.AddNode("f1", 99, 100, 1)
		net.AddNode("f2", 100, 99, 1)
		net.AddNode("f3", 100, 100, 1)
		net.AddNode("f4", 101, 100, 1)
		net.AddNode("f5", 100, 101, 1)
		return net
	}

	cfg := DisruptionConfig{Variance: 4, Seed: 3}

	// A nil Epicenter means the barycentre, which is near the far cluster
	// — nothing near the origin breaks, and with this small variance
	// nothing at all breaks (every node is ~50 units away).
	auto := build().ApplyGeographicDisruption(cfg)
	if auto.BrokenNodes != 0 {
		t.Fatalf("auto-epicentre broke %d nodes, want 0 (barycentre far from every node)", auto.BrokenNodes)
	}

	// Epicenter pins the centre, including the origin. The node exactly at
	// (0, 0) has failure probability 1, so at least it must break, and the
	// far cluster must stay intact.
	cfg.Epicenter = &Epicenter{X: 0, Y: 0}
	net := build()
	origin := net.ApplyGeographicDisruption(cfg)
	if origin.BrokenNodes == 0 {
		t.Fatal("origin epicentre broke nothing; (0,0) must be expressible")
	}
	for _, id := range net.Snapshot().BrokenNodeIDs() {
		if id > 2 {
			t.Errorf("node %d of the far cluster broke under an origin epicentre", id)
		}
	}

	// An explicit epicentre at the far cluster breaks nodes there.
	far := build().ApplyGeographicDisruption(DisruptionConfig{Variance: 4, Seed: 3, Epicenter: &Epicenter{X: 100, Y: 100}})
	if far.BrokenNodes == 0 {
		t.Error("explicit epicentre at the far cluster broke nothing")
	}
}
