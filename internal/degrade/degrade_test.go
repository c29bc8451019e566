package degrade

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"netrecovery/internal/scenario"
)

type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

func TestPanicErrorClassification(t *testing.T) {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = Recovered("solver:TEST", r, debug.Stack())
			}
		}()
		panic("boom")
	}()
	if !IsPanic(err) {
		t.Fatalf("IsPanic = false for %v", err)
	}
	if IsTransient(err) {
		t.Fatal("a recovered panic must not be transient")
	}
	wrapped := fmt.Errorf("outer: %w", err)
	if !IsPanic(wrapped) {
		t.Fatal("IsPanic must see through wrapping")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Op != "solver:TEST" || len(pe.Stack) == 0 {
		t.Fatalf("bad PanicError: %+v", pe)
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(errors.New("plain")) {
		t.Fatal("plain error is not transient")
	}
	if !IsTransient(transientErr{"inj"}) {
		t.Fatal("transientErr must be transient")
	}
	if !IsTransient(fmt.Errorf("wrap: %w", transientErr{"inj"})) {
		t.Fatal("wrapped transient must be transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil is not transient")
	}
}

func TestRetryOnlyTransient(t *testing.T) {
	var sleeps []time.Duration
	p := RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Seed:        42,
		Sleep: func(_ context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			return nil
		},
	}

	calls := 0
	want := &scenario.Plan{Solver: "TEST"}
	plan, attempts, err := p.Retry(context.Background(), func() (*scenario.Plan, error) {
		calls++
		if calls < 3 {
			return nil, transientErr{"flaky"}
		}
		return want, nil
	})
	if err != nil || attempts != 3 || calls != 3 || plan != want {
		t.Fatalf("attempts=%d calls=%d plan=%v err=%v", attempts, calls, plan, err)
	}
	if len(sleeps) != 2 {
		t.Fatalf("sleeps = %v, want 2 entries", sleeps)
	}
	for i, d := range sleeps {
		base := 10 * time.Millisecond << uint(i)
		if d < base/2 || d > base {
			t.Fatalf("sleep %d = %v outside [%v,%v]", i, d, base/2, base)
		}
	}

	// Permanent errors end the loop immediately.
	calls = 0
	perm := errors.New("permanent")
	_, attempts, err = p.Retry(context.Background(), func() (*scenario.Plan, error) { calls++; return nil, perm })
	if !errors.Is(err, perm) || attempts != 1 || calls != 1 {
		t.Fatalf("permanent: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	// Exhaustion returns the last transient error.
	calls = 0
	_, attempts, err = p.Retry(context.Background(), func() (*scenario.Plan, error) { calls++; return nil, transientErr{"always"} })
	if attempts != 3 || calls != 3 || !IsTransient(err) {
		t.Fatalf("exhaustion: attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestRetryJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var sleeps []time.Duration
		p := RetryPolicy{
			MaxAttempts: 4,
			Seed:        7,
			Sleep: func(_ context.Context, d time.Duration) error {
				sleeps = append(sleeps, d)
				return nil
			},
		}
		p.Retry(context.Background(), func() (*scenario.Plan, error) { return nil, transientErr{"x"} })
		return sleeps
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("want 3 sleeps, got %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{
		MaxAttempts: 5,
		Sleep:       defaultSleep,
		BaseBackoff: time.Hour, // the context must end the sleep, not the timer
	}
	calls := 0
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, attempts, err := p.Retry(ctx, func() (*scenario.Plan, error) { calls++; return nil, transientErr{"x"} })
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry did not honor context cancellation")
	}
	if attempts != 1 || calls != 1 || !IsTransient(err) {
		t.Fatalf("attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestBreakerConsecutiveTripAndRecovery(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{
		ConsecutiveFailures: 3,
		Cooldown:            5 * time.Second,
		Now:                 func() time.Time { return now },
	})
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Record(false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside cooldown")
	}
	if ra := b.RetryAfter(); ra != 5*time.Second {
		t.Fatalf("RetryAfter = %v", ra)
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(5 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half_open", b.State())
	}
	if b.Allow() {
		t.Fatal("second request admitted while probe in flight")
	}
	if !b.Blocked() {
		t.Fatal("Blocked must report true while the probe is reserved")
	}

	// Probe fails: back to open, new cooldown.
	b.Record(false)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe must re-open the breaker")
	}

	// Next probe succeeds: closed.
	now = now.Add(5 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the second probe")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
	if b.Blocked() {
		t.Fatal("closed breaker must not report blocked")
	}
	s := b.Snapshot()
	if s.Opens != 2 || s.HalfOpens != 2 || s.Closes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBreakerRatioTrip(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{
		Window:              8,
		MinSamples:          8,
		FailureRatio:        0.5,
		ConsecutiveFailures: 100, // keep the consecutive condition out of the way
		Now:                 func() time.Time { return now },
	})
	// Alternate success/failure: at the 8th sample the ratio hits 0.5.
	for i := 0; i < 8; i++ {
		if b.State() != BreakerClosed {
			t.Fatalf("tripped early at i=%d", i)
		}
		b.Record(i%2 == 0)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open after 50%% failures", b.State())
	}
}

func TestBreakerBlockedDoesNotConsumeProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{
		ConsecutiveFailures: 1,
		Cooldown:            time.Second,
		Now:                 func() time.Time { return now },
	})
	b.Record(false)
	now = now.Add(time.Second)
	if b.Blocked() {
		t.Fatal("cooled-down breaker must not report blocked")
	}
	// Blocked must not have flipped to half-open or reserved the probe.
	if !b.Allow() {
		t.Fatal("probe must still be available after Blocked")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v", b.State())
	}
}

// TestBreakerCancelReturnsProbe: an abandoned half-open probe (client
// disconnect) is returned by Cancel so the next Allow can re-probe, without
// recording an outcome; Cancel in the closed state is a no-op.
func TestBreakerCancelReturnsProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{
		ConsecutiveFailures: 1,
		Cooldown:            5 * time.Second,
		Now:                 func() time.Time { return now },
	})

	// Closed: Cancel records nothing and changes nothing.
	if !b.Allow() {
		t.Fatal("closed breaker refused a request")
	}
	b.Cancel()
	if b.State() != BreakerClosed {
		t.Fatalf("state after closed-state Cancel = %v", b.State())
	}
	if s := b.Snapshot(); s.Successes != 0 || s.Failures != 0 {
		t.Fatalf("Cancel must not record an outcome: %+v", s)
	}

	// Trip, cool down, reserve the probe — then abandon it.
	if !b.Allow() {
		t.Fatal("closed breaker refused a request")
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	now = now.Add(5 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	if b.Allow() {
		t.Fatal("second request admitted while probe reserved")
	}
	b.Cancel()

	// The returned probe is immediately re-admittable and can still close
	// the breaker.
	if !b.Allow() {
		t.Fatal("breaker refused re-probe after Cancel")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after successful re-probe", b.State())
	}
}
