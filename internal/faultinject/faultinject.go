// Package faultinject provides named, seedable fault-injection points for
// the serving stack's chaos tests. Points are compiled in always: when no
// profile is armed, Fire costs a single atomic pointer load and returns
// immediately, so production paths pay nothing. When a profile is armed,
// each point draws deterministic per-call decisions from a splitmix64
// stream keyed by (profile seed, point name, call index) — the n-th call
// at a given point behaves identically across runs regardless of goroutine
// scheduling.
package faultinject

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netrecovery/internal/splitmix"
)

// Point names the places faults can be injected. These strings are pinned
// by fault-profile files and the chaos CI job.
type Point string

const (
	// PointSolver fires at every solver Solve entry (delay / error / panic).
	PointSolver Point = "solver"
	// PointCacheShard fires at plan-cache Do entry (shard unavailable).
	PointCacheShard Point = "cache_shard"
	// PointSSE fires before every SSE event write (slow client).
	PointSSE Point = "sse"
)

// Spec configures one injection point.
type Spec struct {
	// Delay is added to every call at this point (simulates a slow
	// solver or a slow SSE consumer).
	Delay time.Duration `json:"-"`
	// DelayMS mirrors Delay for JSON profiles.
	DelayMS int64 `json:"delay_ms,omitempty"`
	// ErrorRate injects a transient InjectedError on that fraction of
	// calls, decided deterministically per call index. [0,1].
	ErrorRate float64 `json:"error_rate,omitempty"`
	// PanicRate panics (with a PanicValue) on that fraction of calls.
	PanicRate float64 `json:"panic_rate,omitempty"`
}

// Profile is a set of armed injection points sharing one seed.
type Profile struct {
	Seed   uint64         `json:"seed"`
	Points map[Point]Spec `json:"points"`
}

// InjectedError is the transient error produced by an armed ErrorRate.
// It satisfies the structural `Transient() bool` contract consumed by
// internal/degrade's retry policy.
type InjectedError struct {
	Point Point
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error at %q", e.Point)
}

// Transient marks injected errors as retryable.
func (e *InjectedError) Transient() bool { return true }

// PanicValue is the distinctive value an armed PanicRate panics with, so
// recovery boundaries (and tests) can tell an injected panic from a real
// bug.
type PanicValue struct {
	Point Point
}

func (v PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %q", v.Point)
}

// Stats counts what an armed profile has done, exported on /metrics.
type Stats struct {
	Fires  uint64 // calls that consulted an armed point
	Delays uint64 // calls that slept
	Errors uint64 // injected errors
	Panics uint64 // injected panics
}

// armed is the immutable armed-profile state swapped in atomically.
type armed struct {
	profile Profile
	// counters holds one atomic call counter per armed point; the map is
	// fixed at Arm time, only the values move.
	counters map[Point]*atomic.Uint64
	stats    struct {
		fires, delays, errors, panics atomic.Uint64
	}
}

// current holds the armed state; nil means disarmed. A single atomic
// pointer load is the entire disarmed-path cost of Fire.
var current atomic.Pointer[armed]

var armMu sync.Mutex

// Arm activates profile process-wide, replacing any previous profile and
// resetting counters. Arming with an empty points map is equivalent to
// Disarm.
func Arm(p Profile) {
	armMu.Lock()
	defer armMu.Unlock()
	if len(p.Points) == 0 {
		current.Store(nil)
		return
	}
	a := &armed{profile: p, counters: make(map[Point]*atomic.Uint64, len(p.Points))}
	for pt, spec := range p.Points {
		if spec.Delay == 0 && spec.DelayMS > 0 {
			spec.Delay = time.Duration(spec.DelayMS) * time.Millisecond
			p.Points[pt] = spec
		}
		a.counters[pt] = new(atomic.Uint64)
	}
	a.profile = p
	current.Store(a)
}

// Disarm deactivates fault injection.
func Disarm() {
	armMu.Lock()
	defer armMu.Unlock()
	current.Store(nil)
}

// Armed reports whether a profile is active.
func Armed() bool { return current.Load() != nil }

// Snapshot returns the armed profile's counters (zero when disarmed).
func Snapshot() Stats {
	a := current.Load()
	if a == nil {
		return Stats{}
	}
	return Stats{
		Fires:  a.stats.fires.Load(),
		Delays: a.stats.delays.Load(),
		Errors: a.stats.errors.Load(),
		Panics: a.stats.panics.Load(),
	}
}

func pointHash(pt Point) uint64 {
	h := fnv.New64a()
	h.Write([]byte(pt))
	return h.Sum64()
}

// rate converts a [0,1] fraction into a threshold on a uniform uint64.
func rateThreshold(r float64) uint64 {
	if r <= 0 {
		return 0
	}
	if r >= 1 {
		return ^uint64(0)
	}
	return uint64(r * float64(^uint64(0)))
}

// Fire consults the injection point pt. Disarmed (or pt not in the armed
// profile): returns nil at the cost of one atomic load. Armed: sleeps the
// configured delay (context-aware), then deterministically decides — from
// the profile seed, the point name, and this call's index — whether to
// panic (PanicValue) or return a transient *InjectedError.
func Fire(ctx context.Context, pt Point) error {
	a := current.Load()
	if a == nil {
		return nil
	}
	spec, ok := a.profile.Points[pt]
	if !ok {
		return nil
	}
	n := a.counters[pt].Add(1) - 1
	a.stats.fires.Add(1)
	if spec.Delay > 0 {
		a.stats.delays.Add(1)
		t := time.NewTimer(spec.Delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if spec.PanicRate > 0 || spec.ErrorRate > 0 {
		u := splitmix.Next(a.profile.Seed ^ pointHash(pt) ^ n*0x9e3779b97f4a7c15)
		if spec.PanicRate > 0 && u <= rateThreshold(spec.PanicRate) {
			a.stats.panics.Add(1)
			panic(PanicValue{Point: pt})
		}
		// The error decision uses an independent draw so panic and error
		// rates compose without overlapping on the same low values.
		u2 := splitmix.Next(u)
		if spec.ErrorRate > 0 && u2 <= rateThreshold(spec.ErrorRate) {
			a.stats.errors.Add(1)
			return &InjectedError{Point: pt}
		}
	}
	return nil
}

// ParseProfile decodes a JSON fault profile, e.g.:
//
//	{"seed": 7, "points": {"solver": {"delay_ms": 25, "error_rate": 0.1}}}
//
// Unknown point names are rejected so a typo'd profile fails loudly.
func ParseProfile(data []byte) (Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return Profile{}, fmt.Errorf("faultinject: parse profile: %w", err)
	}
	known := map[Point]bool{PointSolver: true, PointCacheShard: true, PointSSE: true}
	var bad []string
	for pt := range p.Points {
		if !known[pt] {
			bad = append(bad, string(pt))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return Profile{}, fmt.Errorf("faultinject: unknown injection points %v", bad)
	}
	for pt, spec := range p.Points {
		if spec.ErrorRate < 0 || spec.ErrorRate > 1 || spec.PanicRate < 0 || spec.PanicRate > 1 {
			return Profile{}, fmt.Errorf("faultinject: point %q: rates must be in [0,1]", pt)
		}
		if spec.DelayMS < 0 {
			return Profile{}, fmt.Errorf("faultinject: point %q: negative delay", pt)
		}
		spec.Delay = time.Duration(spec.DelayMS) * time.Millisecond
		p.Points[pt] = spec
	}
	return p, nil
}

// LoadProfile reads and parses a profile file (the -fault-profile flag).
func LoadProfile(path string) (Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, fmt.Errorf("faultinject: %w", err)
	}
	return ParseProfile(data)
}
