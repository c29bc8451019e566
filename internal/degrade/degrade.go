package degrade

import (
	"time"

	"netrecovery/internal/scenario"
)

// Degradation levels of a served plan, pinned by the wire schema.
const (
	LevelNone     = "none"     // the primary (requested) stage produced the plan
	LevelFallback = "fallback" // a cheaper solver stage produced the plan
	LevelStale    = "stale"    // an expired cache entry was served
)

// Stage outcome strings, pinned by the wire schema and golden tests.
const (
	OutcomeServed      = "served"      // stage produced the plan
	OutcomeTimeout     = "timeout"     // stage exceeded its deadline slice
	OutcomeError       = "error"       // stage failed with a non-deadline error
	OutcomeSkipped     = "skipped"     // stage declined to run (breaker open, no cache)
	OutcomeUnavailable = "unavailable" // stage had nothing to serve (stale miss)
)

// StageResult records one stage's outcome for wire timings.
type StageResult struct {
	Name     string
	Outcome  string
	Attempts int
	Elapsed  time.Duration
	Err      error
}

// Result is one fallback-chain run: the served plan (nil when every stage
// failed), its degradation level, the stage that served it and every
// stage's outcome in chain order.
type Result struct {
	Plan     *scenario.Plan
	Level    string
	ServedBy string
	Stages   []StageResult
	Retries  int // total transient retries across all stages
}
