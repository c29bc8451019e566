// Package ensemble is the Monte-Carlo layer of the recovery stack: it draws
// thousands of correlated disruption samples for one topology, fans the
// resulting scenarios through the sweep worker pool (deduplicating identical
// samples by content fingerprint and routing solves through the plan cache),
// and aggregates the per-sample plans into robust-plan statistics — expected
// cost, quantiles and CVaR of flow loss and repair cost, per-element repair
// frequencies and a greedy consensus plan evaluated against every sample.
//
// Everything is deterministic for a fixed (scenario, sampler spec, seed):
// samples are drawn from per-index splitmix64 streams, solves are
// deterministic across worker counts (PR 4), and aggregation visits samples
// in draw order, so the wire-encoded report is byte-identical across runs
// and across Workers settings.
package ensemble

import (
	"fmt"
	"math/rand"

	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/splitmix"
)

// Sampler model names, the wire values of SamplerSpec.Model.
const (
	// ModelGeographic draws epicenter + distance-decay failures: a
	// bi-variate Gaussian damage field centred near the network barycentre
	// (optionally jittered per sample), reusing disruption.Geographic.
	ModelGeographic = "geographic"
	// ModelBernoulli breaks every node and edge independently.
	ModelBernoulli = "bernoulli"
	// ModelCascade draws an initial Bernoulli shock that propagates to
	// neighbours of failed nodes (disruption.Cascade).
	ModelCascade = "cascade"
)

// SamplerSpec declares one correlated failure model. It is a plain
// JSON-serialisable value: the same spec bytes always describe the same
// distribution, and together with a seed the same exact sample sequence.
type SamplerSpec struct {
	// Model selects the failure model: geographic, bernoulli or cascade.
	Model string `json:"model"`

	// Variance and PeakProbability parameterise the geographic model (the
	// bi-variate Gaussian of disruption.GeographicConfig). EpicenterJitter,
	// when positive, is the standard deviation of a per-sample Gaussian
	// displacement of the epicentre around the network barycentre, modelling
	// uncertainty in where the disaster strikes; zero pins the epicentre to
	// the barycentre (the paper's setting).
	Variance        float64 `json:"variance,omitempty"`
	PeakProbability float64 `json:"peak_probability,omitempty"`
	EpicenterJitter float64 `json:"epicenter_jitter,omitempty"`

	// NodeProb and EdgeProb are the per-element failure probabilities of the
	// bernoulli model. EdgeProb doubles as the co-located link-damage
	// probability of the cascade model.
	NodeProb float64 `json:"node_prob,omitempty"`
	EdgeProb float64 `json:"edge_prob,omitempty"`

	// SeedProb, Spread and Rounds parameterise the cascade model: the
	// initial-shock probability, the per-neighbour propagation probability
	// and the round bound (0 = until fixpoint).
	SeedProb float64 `json:"seed_prob,omitempty"`
	Spread   float64 `json:"spread,omitempty"`
	Rounds   int     `json:"rounds,omitempty"`
}

// probField is one [0,1]-constrained parameter for validation.
type probField struct {
	name  string
	value float64
}

// Validate checks the spec for the selected model.
func (sp SamplerSpec) Validate() error {
	var probs []probField
	switch sp.Model {
	case ModelGeographic:
		if sp.Variance <= 0 {
			return fmt.Errorf("ensemble: geographic sampler requires variance > 0, got %g", sp.Variance)
		}
		if sp.EpicenterJitter < 0 {
			return fmt.Errorf("ensemble: epicenter_jitter must be >= 0, got %g", sp.EpicenterJitter)
		}
		probs = []probField{{"peak_probability", sp.PeakProbability}}
	case ModelBernoulli:
		probs = []probField{{"node_prob", sp.NodeProb}, {"edge_prob", sp.EdgeProb}}
	case ModelCascade:
		probs = []probField{{"seed_prob", sp.SeedProb}, {"spread", sp.Spread}, {"edge_prob", sp.EdgeProb}}
		if sp.Rounds < 0 {
			return fmt.Errorf("ensemble: rounds must be >= 0, got %d", sp.Rounds)
		}
	case "":
		return fmt.Errorf("ensemble: sampler model is required (one of %s, %s, %s)", ModelGeographic, ModelBernoulli, ModelCascade)
	default:
		return fmt.Errorf("ensemble: unknown sampler model %q (one of %s, %s, %s)", sp.Model, ModelGeographic, ModelBernoulli, ModelCascade)
	}
	for _, p := range probs {
		if p.value < 0 || p.value > 1 {
			return fmt.Errorf("ensemble: %s must be in [0, 1], got %g", p.name, p.value)
		}
	}
	return nil
}

// Sample draws one disruption from the model. For a fixed graph and rng
// state the draw is fully deterministic: each model consumes the rng in a
// canonical element order (see the disruption package).
func (sp SamplerSpec) Sample(g *graph.Graph, rng *rand.Rand) disruption.Disruption {
	switch sp.Model {
	case ModelGeographic:
		cfg := disruption.GeographicConfig{
			Auto:            true,
			Variance:        sp.Variance,
			PeakProbability: sp.PeakProbability,
		}
		if sp.EpicenterJitter > 0 && g.NumNodes() > 0 {
			// The jitter draws come first so the damage-field draws that
			// follow stay aligned with the zero-jitter sequence.
			cx, cy := g.Barycenter()
			cfg.Auto = false
			cfg.EpicenterX = cx + sp.EpicenterJitter*rng.NormFloat64()
			cfg.EpicenterY = cy + sp.EpicenterJitter*rng.NormFloat64()
		}
		return disruption.Geographic(g, cfg, rng)
	case ModelBernoulli:
		return disruption.Random(g, sp.NodeProb, sp.EdgeProb, rng)
	case ModelCascade:
		return disruption.Cascade(g, disruption.CascadeConfig{
			SeedProb:  sp.SeedProb,
			Spread:    sp.Spread,
			EdgeProb:  sp.EdgeProb,
			MaxRounds: sp.Rounds,
		}, rng)
	default:
		return disruption.NewDisruption()
	}
}

// sampleRand returns the deterministic random stream of sample i: drawing
// sample 500 never depends on having drawn samples 0..499, so samples are
// individually reproducible and the sequence is stable when Samples grows.
func sampleRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(splitmix.Mix(seed, int64(i))))
}

// reseedSample restarts r on sample i's stream: r then draws exactly what
// sampleRand(seed, i) would, without allocating a new 4.9 KB source.
func reseedSample(r *rand.Rand, seed int64, i int) {
	r.Seed(splitmix.Mix(seed, int64(i)))
}
