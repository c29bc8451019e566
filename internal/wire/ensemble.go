package wire

import (
	"time"

	"netrecovery/internal/ensemble"
	"netrecovery/internal/scenario"
)

// EnsembleSampler is the wire form of a failure-model spec. It IS the
// engine's spec type (plain JSON-tagged fields), aliased so the HTTP schema
// and the engine can never drift.
type EnsembleSampler = ensemble.SamplerSpec

// EnsembleReport is the wire form of an aggregated ensemble result, again
// the engine's own type: every slice is emitted in canonical order and
// wall-clock timing is excluded, so encoding the report of a fixed
// (scenario, sampler, seed) run is byte-identical across runs and worker
// counts.
type EnsembleReport = ensemble.Report

// EnsembleRequest is the request body of POST /v1/ensemble and
// POST /v1/ensemble/stream.
type EnsembleRequest struct {
	Scenario Scenario        `json:"scenario"`
	Sampler  EnsembleSampler `json:"sampler"`
	// Samples is the ensemble size (0 = the engine default, 1000; at most
	// ensemble.MaxSamples).
	Samples int `json:"samples,omitempty"`
	// Seed roots the per-sample random streams.
	Seed int64 `json:"seed,omitempty"`
	// Algorithm is a solver-registry name (default ISP).
	Algorithm string `json:"algorithm,omitempty"`
	// Options carries the solver knobs; Workers bounds the solve pool.
	// StageBudget and NoCache are not meaningful for ensembles and are
	// ignored.
	Options SolveOptions `json:"options,omitempty"`
	// Alpha is the CVaR confidence level (0 = 0.95).
	Alpha float64 `json:"alpha,omitempty"`
	// ConsensusThreshold is the repair-frequency cut-off of the consensus
	// plan (0 = 0.9).
	ConsensusThreshold float64 `json:"consensus_threshold,omitempty"`
}

// Reset empties the request for reuse while keeping its scenario's list
// storage, as PlanRequest.Reset does.
func (req *EnsembleRequest) Reset() {
	*req = EnsembleRequest{Scenario: req.Scenario.emptied()}
}

// BuildSpec converts the wire request into an engine spec (without Cache,
// Workers clamping or progress wiring, which the server layers on).
func (req EnsembleRequest) BuildSpec() (ensemble.Spec, error) {
	s, err := req.Scenario.Build()
	if err != nil {
		return ensemble.Spec{}, err
	}
	spec := ensemble.Spec{
		Scenario:           s,
		Sampler:            req.Sampler,
		Samples:            req.Samples,
		Seed:               req.Seed,
		Algorithm:          req.Algorithm,
		Fast:               req.Options.Fast,
		OPTTimeLimit:       time.Duration(req.Options.OptTimeLimitMS) * time.Millisecond,
		OPTMaxNodes:        req.Options.OptMaxNodes,
		Workers:            req.Options.Workers,
		Alpha:              req.Alpha,
		ConsensusThreshold: req.ConsensusThreshold,
	}
	return spec, nil
}

// EnsembleResponse is the response body of POST /v1/ensemble. Timing lives
// here, outside the deterministic report.
type EnsembleResponse struct {
	Report *EnsembleReport `json:"report"`
	// Fingerprint is the content hash of the base scenario.
	Fingerprint string  `json:"fingerprint"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// FromEnsemble assembles the response envelope from a run's inputs and
// report.
func FromEnsemble(s *scenario.Scenario, rep *EnsembleReport) EnsembleResponse {
	return EnsembleResponse{
		Report:      rep,
		Fingerprint: s.FingerprintHex(),
		ElapsedMS:   float64(rep.Elapsed) / float64(time.Millisecond),
	}
}
