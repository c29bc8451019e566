package degrade

import (
	"context"
	"time"

	"netrecovery/internal/scenario"
	"netrecovery/internal/splitmix"
)

// RetryPolicy bounds re-attempts of a solve's transient failure with jittered
// exponential backoff. The jitter stream is seeded, and the sleeper is
// injectable, so tests (and the chaos suite) are fully deterministic.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Zero or negative means 1: no retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each subsequent
	// retry doubles it, capped at MaxBackoff. Defaults 10ms / 250ms.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed keys the jitter stream. The n-th retry sleeps
	// backoff/2 + u·backoff/2 where u is the splitmix64 output keyed by
	// seed and n.
	Seed uint64
	// Sleep is called to wait between attempts; nil means a
	// context-aware real sleep. Tests inject a recorder.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, if set, observes each scheduled retry (attempt number
	// starting at 1, the error being retried). Used for metrics.
	OnRetry func(attempt int, err error)
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) backoff(retry int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := base << uint(retry)
	if d > max || d <= 0 {
		d = max
	}
	// Half fixed, half jittered: never less than d/2, never more than d.
	u := splitmix.Next(p.Seed ^ uint64(retry)*0x9e3779b97f4a7c15)
	jitter := time.Duration(u % uint64(d/2+1))
	return d/2 + jitter
}

func defaultSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retry runs solve up to MaxAttempts times, sleeping a jittered backoff
// between attempts. Only transient errors (IsTransient) are retried;
// success, permanent errors, and context death end the loop immediately.
// It returns the last attempt's plan and error and the number of attempts
// made.
func (p RetryPolicy) Retry(ctx context.Context, solve func() (*scenario.Plan, error)) (plan *scenario.Plan, attempts int, err error) {
	sleep := p.Sleep
	if sleep == nil {
		sleep = defaultSleep
	}
	max := p.attempts()
	for attempts = 1; ; attempts++ {
		plan, err = solve()
		if err == nil || !IsTransient(err) || attempts >= max {
			return plan, attempts, err
		}
		if ctx.Err() != nil {
			return plan, attempts, err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempts, err)
		}
		if serr := sleep(ctx, p.backoff(attempts-1)); serr != nil {
			return plan, attempts, err
		}
	}
}
