package netrecovery

import (
	"context"
	"fmt"
	"time"

	"netrecovery/internal/ensemble"
)

// The ensemble engine is the Monte-Carlo layer of the library: it draws
// thousands of correlated disruption samples over one scenario, solves the
// distinct samples concurrently (deduplicating by content fingerprint and
// routing through a PlanCache when provided) and aggregates the plans into
// robust-plan statistics — expected cost, quantiles, CVaR of flow loss and
// repair cost, per-element repair frequencies and a consensus repair plan
// evaluated against every sample. The types below alias the engine's types
// so callers outside the module can use them through the facade.
type (
	// EnsembleSampler declares the correlated failure model samples are
	// drawn from; see the aliased type for the per-model parameters.
	EnsembleSampler = ensemble.SamplerSpec
	// EnsembleReport is the aggregated outcome. Its JSON encoding is
	// byte-identical across runs and worker counts for a fixed
	// (scenario, sampler, seed).
	EnsembleReport = ensemble.Report
	// EnsembleDist summarises one per-sample metric (mean, quantiles,
	// CVaR).
	EnsembleDist = ensemble.Dist
	// EnsembleConsensus is the robust plan assembled from high-frequency
	// repairs.
	EnsembleConsensus = ensemble.Consensus
	// EnsembleRepairStat is the ensemble-wide repair frequency of one
	// element.
	EnsembleRepairStat = ensemble.RepairStat
	// EnsembleProgress is one progress notification (Done of Total
	// samples).
	EnsembleProgress = ensemble.Progress
)

// Failure models understood by EnsembleSampler.Model.
const (
	// EnsembleGeographic draws epicenter + distance-decay failures (the
	// paper's geographically-correlated model, optionally with a per-sample
	// epicentre jitter).
	EnsembleGeographic = ensemble.ModelGeographic
	// EnsembleBernoulli breaks every element independently.
	EnsembleBernoulli = ensemble.ModelBernoulli
	// EnsembleCascade draws an initial shock that propagates to neighbours
	// of failed nodes.
	EnsembleCascade = ensemble.ModelCascade
)

// EnsembleSpec declares one ensemble run.
type EnsembleSpec struct {
	// Scenario is the base instance (Network.Snapshot); sampled disruptions
	// are unioned with its broken sets. The snapshot is never mutated.
	Scenario *Scenario
	// Sampler is the failure model to draw from.
	Sampler EnsembleSampler
	// Samples is the ensemble size (0 = 1000, at most 100,000).
	Samples int
	// Seed roots the per-sample random streams: the same
	// (scenario, sampler, seed) triple reproduces the exact sample set and
	// a byte-identical report.
	Seed int64
	// Algorithm solves every sample (default ISP).
	Algorithm Algorithm
	// FastISP mirrors WithFastISP; OPTTimeLimit/OPTMaxNodes mirror
	// WithOPTBudget.
	FastISP      bool
	OPTTimeLimit time.Duration
	OPTMaxNodes  int
	// Workers bounds the concurrent solves (0 = GOMAXPROCS). The report is
	// identical for every value.
	Workers int
	// Alpha is the CVaR confidence level in (0, 1) (0 = 0.95).
	Alpha float64
	// ConsensusThreshold is the repair-frequency cut-off in (0, 1] for the
	// consensus plan (0 = 0.9: an element must be repaired in >= 90% of
	// samples).
	ConsensusThreshold float64
	// Cache, when non-nil, routes unique-sample solves through the shared
	// plan cache, so re-running an ensemble (or overlapping another
	// workload's scenarios) answers repeats in microseconds. The report's
	// HitRatio field accounts both fingerprint dedup and cache hits.
	Cache *PlanCache
	// OnProgress, when set, receives a notification after each unique
	// sample completes. Calls are serialised; the callback must be cheap.
	OnProgress func(EnsembleProgress)
}

// RunEnsemble executes the ensemble and returns the aggregated robust-plan
// report. Individual sample solve failures are isolated (counted in
// Report.Failures); a cancelled context aborts the run with ctx.Err().
func RunEnsemble(ctx context.Context, spec EnsembleSpec) (*EnsembleReport, error) {
	if spec.Scenario == nil || spec.Scenario.inner == nil {
		return nil, fmt.Errorf("netrecovery: RunEnsemble called with a nil scenario")
	}
	inner := ensemble.Spec{
		Scenario:           spec.Scenario.inner,
		Sampler:            spec.Sampler,
		Samples:            spec.Samples,
		Seed:               spec.Seed,
		Algorithm:          string(spec.Algorithm),
		Fast:               spec.FastISP,
		OPTTimeLimit:       spec.OPTTimeLimit,
		OPTMaxNodes:        spec.OPTMaxNodes,
		Workers:            spec.Workers,
		Alpha:              spec.Alpha,
		ConsensusThreshold: spec.ConsensusThreshold,
		OnProgress:         spec.OnProgress,
	}
	if spec.Cache != nil {
		inner.Cache = spec.Cache.inner
	}
	return ensemble.Run(ctx, inner)
}
