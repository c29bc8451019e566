package ensemble

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/faultinject"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

// failSolver always errors; registered once to exercise failure isolation.
type failSolver struct{}

func (failSolver) Name() string { return "FAIL-TEST" }
func (failSolver) Solve(context.Context, *scenario.Scenario) (*scenario.Plan, error) {
	return nil, errors.New("boom")
}

func init() {
	heuristics.Register(heuristics.Info{
		Name:        "FAIL-TEST",
		Description: "always fails (ensemble tests)",
	}, func(heuristics.Params) heuristics.Solver { return failSolver{} })
}

// bellScenario is the Quick Bell-Canada instance with an intact network; the
// sampler provides all the damage.
func bellScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	g := topology.BellCanada()
	dg, err := demand.GenerateFarApartPairs(g, 4, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("generate demand: %v", err)
	}
	return &scenario.Scenario{
		Supply:      g,
		Demand:      dg,
		BrokenNodes: map[graph.NodeID]bool{},
		BrokenEdges: map[graph.EdgeID]bool{},
	}
}

// tinyScenario is a 3-node path with the first link already broken: the only
// route of the single demand pair runs through it, so every optimal plan must
// repair it.
func tinyScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	g := graph.New(3, 2)
	for i := 0; i < 3; i++ {
		g.AddNode("", float64(i), 0, 1)
	}
	e01 := g.MustAddEdge(0, 1, 10, 7)
	g.MustAddEdge(1, 2, 10, 3)
	dg := demand.New()
	dg.MustAdd(0, 2, 5)
	return &scenario.Scenario{
		Supply:      g,
		Demand:      dg,
		BrokenNodes: map[graph.NodeID]bool{},
		BrokenEdges: map[graph.EdgeID]bool{e01: true},
	}
}

func TestSamplerValidate(t *testing.T) {
	cases := []struct {
		spec SamplerSpec
		want string // substring of the error, "" = valid
	}{
		{SamplerSpec{Model: ModelBernoulli, NodeProb: 0.2, EdgeProb: 0.1}, ""},
		{SamplerSpec{Model: ModelGeographic, Variance: 4, PeakProbability: 0.8}, ""},
		{SamplerSpec{Model: ModelCascade, SeedProb: 0.1, Spread: 0.5, EdgeProb: 0.5}, ""},
		{SamplerSpec{}, "model is required"},
		{SamplerSpec{Model: "meteor"}, "unknown sampler model"},
		{SamplerSpec{Model: ModelBernoulli, NodeProb: 1.5}, "node_prob"},
		{SamplerSpec{Model: ModelBernoulli, EdgeProb: -0.1}, "edge_prob"},
		{SamplerSpec{Model: ModelGeographic, Variance: 0}, "variance"},
		{SamplerSpec{Model: ModelGeographic, Variance: 4, EpicenterJitter: -1}, "epicenter_jitter"},
		{SamplerSpec{Model: ModelGeographic, Variance: 4, PeakProbability: 2}, "peak_probability"},
		{SamplerSpec{Model: ModelCascade, SeedProb: 0.1, Spread: 2}, "spread"},
		{SamplerSpec{Model: ModelCascade, SeedProb: 0.1, Rounds: -1}, "rounds"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%+v: unexpected error %v", tc.spec, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: want error containing %q, got %v", tc.spec, tc.want, err)
		}
	}
}

// TestSamplerSeedStability pins the wrapper layer: the same rng seed draws the
// same disruption, and the wrappers consume the rng exactly like the
// underlying disruption generators (satellite: Random/Geographic stability
// under the new sampler wrappers).
func TestSamplerSeedStability(t *testing.T) {
	g := topology.BellCanada()
	specs := []SamplerSpec{
		{Model: ModelBernoulli, NodeProb: 0.2, EdgeProb: 0.15},
		{Model: ModelGeographic, Variance: 25, PeakProbability: 0.9},
		{Model: ModelGeographic, Variance: 25, PeakProbability: 0.9, EpicenterJitter: 3},
		{Model: ModelCascade, SeedProb: 0.1, Spread: 0.4, EdgeProb: 0.5},
	}
	for _, sp := range specs {
		a := sp.Sample(g, rand.New(rand.NewSource(42)))
		b := sp.Sample(g, rand.New(rand.NewSource(42)))
		if !reflect.DeepEqual(a.Nodes, b.Nodes) || !reflect.DeepEqual(a.Edges, b.Edges) {
			t.Errorf("%s: same seed drew different disruptions", sp.Model)
		}
	}

	// The bernoulli wrapper is exactly disruption.Random.
	sp := SamplerSpec{Model: ModelBernoulli, NodeProb: 0.25, EdgeProb: 0.1}
	got := sp.Sample(g, rand.New(rand.NewSource(9)))
	want := disruption.Random(g, 0.25, 0.1, rand.New(rand.NewSource(9)))
	if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Error("bernoulli wrapper diverged from disruption.Random")
	}

	// The zero-jitter geographic wrapper is exactly disruption.Geographic in
	// auto-epicentre mode.
	sp = SamplerSpec{Model: ModelGeographic, Variance: 25, PeakProbability: 0.9}
	got = sp.Sample(g, rand.New(rand.NewSource(9)))
	want = disruption.Geographic(g, disruption.GeographicConfig{
		Auto: true, Variance: 25, PeakProbability: 0.9,
	}, rand.New(rand.NewSource(9)))
	if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Error("geographic wrapper diverged from disruption.Geographic")
	}
}

func TestSampleRandIndependentStreams(t *testing.T) {
	// Stream i is a pure function of (seed, i): sample 500 never depends on
	// samples 0..499, and neighbouring indices decorrelate.
	if sampleRand(7, 500).Int63() != sampleRand(7, 500).Int63() {
		t.Error("sampleRand is not reproducible")
	}
	if sampleRand(7, 0).Int63() == sampleRand(7, 1).Int63() {
		t.Error("neighbouring sample streams coincide")
	}
	if sampleRand(7, 0).Int63() == sampleRand(8, 0).Int63() {
		t.Error("different seeds yield the same stream")
	}
}

// TestReseededStreamsMatchFresh pins that Run's one reseeded generator
// draws, for every sample, the same stream as a fresh sampleRand.
func TestReseededStreamsMatchFresh(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		r := sampleRand(seed, 0)
		for _, i := range []int{0, 1, 2, int(seed) % 97, 1000 + int(seed)} {
			r.Int63() // leave the reused generator mid-stream
			reseedSample(r, seed, i)
			fresh := sampleRand(seed, i)
			for k := 0; k < 8; k++ {
				if got, want := r.Int63(), fresh.Int63(); got != want {
					t.Fatalf("seed %d sample %d draw %d: reseeded %d, fresh %d", seed, i, k, got, want)
				}
			}
			if got, want := r.Float64(), fresh.Float64(); got != want {
				t.Fatalf("seed %d sample %d: reseeded Float64 %v, fresh %v", seed, i, got, want)
			}
		}
	}
}

func TestComputeDist(t *testing.T) {
	// values expanded by multiplicity: [1, 2, 3, 3].
	d := computeDist([]float64{1, 2, 3}, []int{1, 1, 2}, 0.5, true)
	if d.Mean != 2.25 {
		t.Errorf("mean: got %g want 2.25", d.Mean)
	}
	if d.Min != 1 || d.Max != 3 {
		t.Errorf("min/max: got %g/%g", d.Min, d.Max)
	}
	if d.P50 != 2 {
		t.Errorf("p50: got %g want 2 (nearest-rank)", d.P50)
	}
	if d.P99 != 3 {
		t.Errorf("p99: got %g want 3", d.P99)
	}
	if d.CVaR != 3 {
		t.Errorf("cvar (worst-high, tail 2): got %g want 3", d.CVaR)
	}
	low := computeDist([]float64{1, 2, 3}, []int{1, 1, 2}, 0.5, false)
	if low.CVaR != 1.5 {
		t.Errorf("cvar (worst-low, tail 2): got %g want 1.5", low.CVaR)
	}
	if empty := computeDist(nil, nil, 0.95, true); empty != (Dist{}) {
		t.Errorf("empty dist: got %+v", empty)
	}
}

func TestRunValidation(t *testing.T) {
	base := tinyScenario(t)
	sampler := SamplerSpec{Model: ModelBernoulli, NodeProb: 0.1}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"nil scenario", Spec{Sampler: sampler}, "nil scenario"},
		{"bad sampler", Spec{Scenario: base, Sampler: SamplerSpec{Model: "x"}}, "unknown sampler model"},
		{"negative samples", Spec{Scenario: base, Sampler: sampler, Samples: -1}, "samples"},
		{"alpha too high", Spec{Scenario: base, Sampler: sampler, Alpha: 1.5}, "alpha"},
		{"threshold too high", Spec{Scenario: base, Sampler: sampler, ConsensusThreshold: 1.5}, "consensus threshold"},
		{"unknown algorithm", Spec{Scenario: base, Sampler: sampler, Samples: 2, Algorithm: "NOPE"}, "NOPE"},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{
		Scenario: tinyScenario(t),
		Sampler:  SamplerSpec{Model: ModelBernoulli, NodeProb: 0.1},
		Samples:  10,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunConsensusOnForcedBreak drives the full path on a scenario whose base
// damage forces one specific repair in every sample, pinning the aggregation
// numbers exactly.
func TestRunConsensusOnForcedBreak(t *testing.T) {
	base := tinyScenario(t)
	rep, err := Run(context.Background(), Spec{
		Scenario: base,
		// Zero-probability sampler: every sample is the base scenario itself.
		Sampler: SamplerSpec{Model: ModelBernoulli},
		Samples: 25,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 25 || rep.Unique != 1 || rep.Deduped != 24 {
		t.Fatalf("dedup: got samples=%d unique=%d deduped=%d", rep.Samples, rep.Unique, rep.Deduped)
	}
	if rep.Solves != 1 || rep.CacheHits != 0 || rep.Failures != 0 {
		t.Fatalf("counters: got solves=%d hits=%d failures=%d", rep.Solves, rep.CacheHits, rep.Failures)
	}
	if want := 24.0 / 25.0; rep.HitRatio != want {
		t.Errorf("hit ratio: got %g want %g", rep.HitRatio, want)
	}
	if rep.TotalDemand != 5 {
		t.Errorf("total demand: got %g want 5", rep.TotalDemand)
	}
	if rep.BrokenElements.Mean != 1 || rep.BrokenElements.Std != 0 {
		t.Errorf("broken elements: got %+v", rep.BrokenElements)
	}
	if rep.RepairCost.Mean != 7 {
		t.Errorf("repair cost mean: got %g want 7 (edge 0)", rep.RepairCost.Mean)
	}
	if rep.FlowLoss.Max != 0 {
		t.Errorf("flow loss: got %+v, plan should restore everything", rep.FlowLoss)
	}
	if rep.SatisfiedRatio.Min != 1 {
		t.Errorf("satisfied ratio: got %+v", rep.SatisfiedRatio)
	}
	want := []RepairStat{{
		Kind: "link", ID: 0, Broken: 25, Repaired: 25,
		Frequency: 1, ConditionalFrequency: 1,
	}}
	if !reflect.DeepEqual(rep.Repairs, want) {
		t.Errorf("repairs: got %+v want %+v", rep.Repairs, want)
	}
	c := rep.Consensus
	if !reflect.DeepEqual(c.Links, []int{0}) || len(c.Nodes) != 0 {
		t.Errorf("consensus sets: got nodes=%v links=%v", c.Nodes, c.Links)
	}
	if c.MeanCost != 7 || c.FullSatisfied != 1 || c.SatisfiedRatio.Min != 1 {
		t.Errorf("consensus evaluation: got %+v", c)
	}
}

func TestRunFailureIsolation(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Scenario:  tinyScenario(t),
		Sampler:   SamplerSpec{Model: ModelBernoulli},
		Samples:   10,
		Algorithm: "FAIL-TEST",
	})
	if err != nil {
		t.Fatalf("solve failures must not abort the run: %v", err)
	}
	if rep.Failures != 1 || rep.FirstError != "boom" {
		t.Fatalf("failures: got %d (%q)", rep.Failures, rep.FirstError)
	}
	if rep.Solves != 1 {
		t.Errorf("failed solves still count as attempts: got %d", rep.Solves)
	}
	if rep.SatisfiedRatio != (Dist{}) || len(rep.Repairs) != 0 {
		t.Errorf("failed samples must be excluded from statistics: %+v", rep)
	}
	if len(rep.Consensus.Nodes) != 0 || len(rep.Consensus.Links) != 0 {
		t.Errorf("consensus of an all-failed run must be empty: %+v", rep.Consensus)
	}
}

func TestRunProgress(t *testing.T) {
	var events []Progress
	rep, err := Run(context.Background(), Spec{
		Scenario:   bellScenario(t),
		Sampler:    SamplerSpec{Model: ModelCascade, SeedProb: 0.05, Spread: 0.3, EdgeProb: 0.4},
		Samples:    40,
		Seed:       5,
		Fast:       true,
		Workers:    4,
		OnProgress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != rep.Unique {
		t.Fatalf("one progress event per unique scenario: got %d want %d", len(events), rep.Unique)
	}
	prev := 0
	for _, p := range events {
		if p.Total != 40 {
			t.Fatalf("total must be the sample count: got %d", p.Total)
		}
		if p.Done <= prev {
			t.Fatalf("done must strictly increase: %d after %d", p.Done, prev)
		}
		prev = p.Done
	}
	if prev != 40 {
		t.Fatalf("final done must equal samples: got %d", prev)
	}
}

func TestRunCacheReuse(t *testing.T) {
	cache := plancache.New(plancache.Config{})
	spec := Spec{
		Scenario: bellScenario(t),
		Sampler:  SamplerSpec{Model: ModelCascade, SeedProb: 0.05, Spread: 0.3, EdgeProb: 0.4},
		Samples:  60,
		Seed:     11,
		Fast:     true,
		Cache:    cache,
	}
	first, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Solves != first.Unique || first.CacheHits != 0 {
		t.Fatalf("fresh cache: got solves=%d hits=%d unique=%d", first.Solves, first.CacheHits, first.Unique)
	}
	second, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Solves != 0 || second.CacheHits != second.Unique {
		t.Fatalf("warm cache: got solves=%d hits=%d unique=%d", second.Solves, second.CacheHits, second.Unique)
	}
	if second.HitRatio != 1 {
		t.Errorf("warm hit ratio: got %g want 1", second.HitRatio)
	}
	// The statistics must not depend on where the plans came from.
	if !reflect.DeepEqual(first.RepairCost, second.RepairCost) ||
		!reflect.DeepEqual(first.SatisfiedRatio, second.SatisfiedRatio) ||
		!reflect.DeepEqual(first.Repairs, second.Repairs) ||
		!reflect.DeepEqual(first.Consensus, second.Consensus) {
		t.Error("cached and solved runs disagree on the aggregated statistics")
	}
}

// TestRunDeterministicAcrossWorkers is the determinism property: the same
// (topology, sampler config, seed) produces a byte-identical wire-encoded
// report across runs AND across worker counts.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a Bell-Canada ensemble seven times")
	}
	samplers := []SamplerSpec{
		{Model: ModelBernoulli, NodeProb: 0.06, EdgeProb: 0.05},
		{Model: ModelCascade, SeedProb: 0.04, Spread: 0.35, EdgeProb: 0.5},
	}
	for _, sampler := range samplers {
		encode := func(workers int) []byte {
			spec := Spec{
				Scenario: bellScenario(t),
				Sampler:  sampler,
				Samples:  80,
				Seed:     21,
				Fast:     true,
				Workers:  workers,
			}
			rep, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sampler.Model, workers, err)
			}
			raw, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		ref := encode(1)
		for _, workers := range []int{1, 2, 4} {
			if got := encode(workers); string(got) != string(ref) {
				t.Fatalf("%s: report bytes differ at workers=%d", sampler.Model, workers)
			}
		}
	}
}

// TestThousandSampleEnsemble is the acceptance-scale run (the nightly job
// repeats it under -race): 1000 geographic-model samples over Quick
// Bell-Canada, solved with fast ISP through a fresh plan cache.
func TestThousandSampleEnsemble(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-sample ensemble")
	}
	rep, err := Run(context.Background(), Spec{
		Scenario: bellScenario(t),
		Sampler:  SamplerSpec{Model: ModelBernoulli, NodeProb: 0.08, EdgeProb: 0.08},
		Samples:  1000,
		Seed:     1,
		Fast:     true,
		Cache:    plancache.New(plancache.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 1000 || rep.Unique < 2 || rep.Unique > 1000 {
		t.Fatalf("samples/unique: got %d/%d", rep.Samples, rep.Unique)
	}
	if rep.Deduped != rep.Samples-rep.Unique {
		t.Errorf("deduped: got %d want %d", rep.Deduped, rep.Samples-rep.Unique)
	}
	if rep.Solves != rep.Unique {
		t.Errorf("fresh cache must solve each unique scenario once: solves=%d unique=%d", rep.Solves, rep.Unique)
	}
	if want := float64(rep.Samples-rep.Solves) / float64(rep.Samples); rep.HitRatio != want {
		t.Errorf("hit ratio: got %g want %g", rep.HitRatio, want)
	}
	if rep.Failures != 0 {
		t.Fatalf("unexpected failures: %d (%s)", rep.Failures, rep.FirstError)
	}
	if rep.TotalDemand != 40 {
		t.Errorf("total demand: got %g want 40", rep.TotalDemand)
	}
	if rep.SatisfiedRatio.Mean <= 0 || rep.SatisfiedRatio.Mean > 1 {
		t.Errorf("satisfied ratio mean out of range: %g", rep.SatisfiedRatio.Mean)
	}
	if rep.SatisfiedRatio.CVaR > rep.SatisfiedRatio.Mean {
		t.Errorf("satisfaction CVaR (worst tail) above the mean: %g > %g", rep.SatisfiedRatio.CVaR, rep.SatisfiedRatio.Mean)
	}
	if rep.RepairCost.CVaR < rep.RepairCost.Mean {
		t.Errorf("cost CVaR (worst tail) below the mean: %g < %g", rep.RepairCost.CVaR, rep.RepairCost.Mean)
	}
	// Repairs are canonical: nodes first, then links, IDs ascending, and the
	// consensus sets are exactly the high-frequency repairs.
	seenLink := false
	prevID := -1
	var consensusNodes, consensusLinks []int
	for _, st := range rep.Repairs {
		switch st.Kind {
		case "node":
			if seenLink {
				t.Fatal("node stat after link stats")
			}
		case "link":
			if !seenLink {
				seenLink = true
				prevID = -1
			}
		default:
			t.Fatalf("unknown repair kind %q", st.Kind)
		}
		if st.ID <= prevID {
			t.Fatalf("repair IDs not ascending: %d after %d", st.ID, prevID)
		}
		prevID = st.ID
		if st.Repaired > st.Broken {
			t.Fatalf("element %s/%d repaired more often than broken", st.Kind, st.ID)
		}
		if st.Frequency >= rep.Consensus.Threshold {
			if st.Kind == "node" {
				consensusNodes = append(consensusNodes, st.ID)
			} else {
				consensusLinks = append(consensusLinks, st.ID)
			}
		}
	}
	if !reflect.DeepEqual(rep.Consensus.Nodes, orEmpty(consensusNodes)) ||
		!reflect.DeepEqual(rep.Consensus.Links, orEmpty(consensusLinks)) {
		t.Errorf("consensus sets disagree with repair frequencies: %+v vs nodes=%v links=%v",
			rep.Consensus, consensusNodes, consensusLinks)
	}
	if r := rep.Consensus.SatisfiedRatio.Mean; r < 0 || r > 1 {
		t.Errorf("consensus satisfied ratio out of range: %g", r)
	}
}

func orEmpty(ids []int) []int {
	if ids == nil {
		return []int{}
	}
	return ids
}

func TestEvaluateRepairsRoutesThroughRepairedOnly(t *testing.T) {
	s := tinyScenario(t)
	none := flow.SatisfiedAfterRepairs(s, nil, nil, nil)
	if none != 0 {
		t.Errorf("broken unrepaired edge must block the flow, got %g", none)
	}
	all := flow.SatisfiedAfterRepairs(s, nil, []bool{0: true}, nil)
	if math.Abs(all-5) > 1e-9 {
		t.Errorf("repairing edge 0 must restore the full demand, got %g", all)
	}
}

// TestRunPanicIsolation: a solver panic (injected at the solver fault point)
// fails only that unique's samples — the run itself completes with the panic
// converted to a typed error, never unwinding into the pool.
func TestRunPanicIsolation(t *testing.T) {
	faultinject.Arm(faultinject.Profile{Seed: 11, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointSolver: {PanicRate: 1},
	}})
	defer faultinject.Disarm()

	rep, err := Run(context.Background(), Spec{
		Scenario: tinyScenario(t),
		Sampler:  SamplerSpec{Model: ModelBernoulli},
		Samples:  10,
	})
	if err != nil {
		t.Fatalf("solver panics must not abort the run: %v", err)
	}
	if rep.Failures != rep.Unique || rep.Failures == 0 {
		t.Fatalf("every unique must fail under PanicRate 1: failures=%d unique=%d", rep.Failures, rep.Unique)
	}
	if !strings.Contains(rep.FirstError, "panic") {
		t.Fatalf("FirstError should carry the recovered panic, got %q", rep.FirstError)
	}
	if st := faultinject.Snapshot(); st.Panics == 0 {
		t.Fatalf("no injected panics recorded: %+v", st)
	}
}
