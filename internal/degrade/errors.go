// Package degrade implements the serving stack's graceful-degradation
// toolkit: typed panic errors, bounded retry with deterministic jittered
// backoff, a per-resource circuit breaker, a token limiter with a bounded
// wait (admission, peer fills), and the outcome types of the
// deadline-budgeted fallback chain (exact solve → cheaper heuristic →
// stale-but-served cache entry) that heuristics.Chain runs.
package degrade

import (
	"errors"
	"fmt"
)

// PanicError is a solver (or cache-leader) panic converted into a value at
// the recovery boundary. It carries the operation that panicked, the
// recovered value, and the goroutine stack captured at recovery time so the
// failure is diagnosable without crashing the process or stranding
// coalesced waiters.
type PanicError struct {
	Op    string // operation that panicked, e.g. "solver:OPT"
	Value any    // value passed to panic()
	Stack []byte // stack captured by the recovering goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: panic: %v", e.Op, e.Value)
}

// Recovered wraps a recovered panic value into a *PanicError. Callers use
// it inside a deferred recover block:
//
//	defer func() {
//		if r := recover(); r != nil {
//			err = degrade.Recovered("solver:OPT", r, debug.Stack())
//		}
//	}()
func Recovered(op string, r any, stack []byte) *PanicError {
	return &PanicError{Op: op, Value: r, Stack: stack}
}

// IsPanic reports whether err wraps a recovered panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// transient is implemented by errors that are safe to retry (injected
// faults, shard hiccups). Declared structurally so fault-injection and
// cache packages need not import degrade to participate.
type transient interface {
	Transient() bool
}

// IsTransient reports whether err (or an error in its chain) declares
// itself retryable via a `Transient() bool` method. Recovered panics are
// never transient: a panicking solver is a bug, not a blip.
func IsTransient(err error) bool {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if t, ok := e.(transient); ok {
			return t.Transient()
		}
	}
	return false
}

// ErrExhausted marks a fallback chain that ran out of stages without
// producing a plan. heuristics.Chain.Run joins it with the last stage
// error so callers can both classify (errors.Is) and diagnose.
var ErrExhausted = errors.New("degrade: all fallback stages exhausted")

// ErrBreakerOpen is returned (wrapped, naming the resource) when a circuit
// breaker refuses a request without attempting it.
var ErrBreakerOpen = errors.New("degrade: circuit breaker open")

// BreakerOpenError carries the breaker's resource name and the remaining
// cooldown hint for Retry-After headers. It wraps ErrBreakerOpen.
type BreakerOpenError struct {
	Resource   string
	RetryAfter float64 // seconds until a half-open probe will be admitted
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("degrade: circuit breaker open for %q", e.Resource)
}

func (e *BreakerOpenError) Unwrap() error { return ErrBreakerOpen }
