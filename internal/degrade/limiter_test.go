package degrade

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or a few seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// acquireAsync runs Acquire(ctx, n) on its own goroutine and delivers the
// error.
func acquireAsync(l *Limiter, ctx context.Context, n int) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := l.Acquire(ctx, n)
		done <- err
	}()
	return done
}

// result waits a few seconds for an asynchronous acquisition's error.
func result(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

func TestLimiterShedsPastWaitingBound(t *testing.T) {
	l := NewLimiter(1, 1)
	if waited, err := l.Acquire(context.Background(), 1); err != nil || waited {
		t.Fatalf("first acquisition: waited=%v err=%v, want immediate", waited, err)
	}
	queued := acquireAsync(l, context.Background(), 1)
	waitFor(t, "one waiter", func() bool { return l.Waiting() == 1 })

	start := time.Now()
	if _, err := l.Acquire(context.Background(), 1); !errors.Is(err, ErrShed) {
		t.Fatalf("acquisition past the waiting bound: err=%v, want ErrShed", err)
	}
	if _, err := l.AcquireWithin(context.Background(), 1, 0); !errors.Is(err, ErrShed) {
		t.Fatalf("acquisition within a zero bound: err=%v, want ErrShed", err)
	}
	if _, err := l.Acquire(context.Background(), 2); !errors.Is(err, ErrShed) {
		t.Fatalf("acquisition of more tokens than the limiter has: err=%v, want ErrShed", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shedding took %v, want immediate", d)
	}
	if l.InUse() != 1 || l.Waiting() != 1 {
		t.Fatalf("after sheds: in use %d, waiting %d; want 1 and 1", l.InUse(), l.Waiting())
	}

	l.Release(1)
	if err := result(t, queued, "queued acquisition"); err != nil {
		t.Fatalf("queued acquisition: %v", err)
	}
	l.Release(1)
	if l.InUse() != 0 || l.Waiting() != 0 {
		t.Fatalf("after releases: in use %d, waiting %d", l.InUse(), l.Waiting())
	}
}

// TestLimiterMultiTokenNoDeadlock: two 3-token acquisitions wait on a full
// 4-token limiter. The released tokens all go to the head waiter until it
// has three, so one acquisition completes while the other holds the fourth
// token (had they shared the four, each would hold two and wait forever),
// and the second completes once the first releases.
func TestLimiterMultiTokenNoDeadlock(t *testing.T) {
	l := NewLimiter(4, 4)
	if _, err := l.Acquire(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	a := acquireAsync(l, context.Background(), 3)
	b := acquireAsync(l, context.Background(), 3)
	waitFor(t, "two waiters", func() bool { return l.Waiting() == 2 })

	l.Release(4)
	var second <-chan error
	select {
	case err := <-a:
		if err != nil {
			t.Fatal(err)
		}
		second = b
	case err := <-b:
		if err != nil {
			t.Fatal(err)
		}
		second = a
	case <-time.After(5 * time.Second):
		t.Fatal("neither multi-token acquisition completed: deadlock")
	}
	if l.InUse() != 4 || l.Waiting() != 1 {
		t.Fatalf("with one acquisition done: in use %d, waiting %d; want 4 and 1", l.InUse(), l.Waiting())
	}
	l.Release(3)
	if err := result(t, second, "second multi-token acquisition"); err != nil {
		t.Fatal(err)
	}
	l.Release(3)
	if l.InUse() != 0 {
		t.Fatalf("in use %d after every release", l.InUse())
	}
}

// TestLimiterCancelReturnsTokens: a 3-token waiter that took the one free
// token gives it back when its context ends, and the waiter behind it gets
// it.
func TestLimiterCancelReturnsTokens(t *testing.T) {
	l := NewLimiter(3, 2)
	if _, err := l.Acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	head := acquireAsync(l, ctx, 3)
	waitFor(t, "the head waiter to take the free token", func() bool { return l.Waiting() == 1 && l.InUse() == 3 })
	behind := acquireAsync(l, context.Background(), 1)
	waitFor(t, "a second waiter", func() bool { return l.Waiting() == 2 })

	cancel()
	if err := result(t, head, "cancelled acquisition"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquisition: err=%v, want context.Canceled", err)
	}
	if err := result(t, behind, "acquisition behind the cancelled one"); err != nil {
		t.Fatalf("acquisition behind the cancelled one: %v", err)
	}
	if l.InUse() != 3 || l.Waiting() != 0 {
		t.Fatalf("after cancel: in use %d, waiting %d; want 3 (2 held + 1 passed on) and 0", l.InUse(), l.Waiting())
	}
	l.Release(2)
	l.Release(1)
	if waited, err := l.Acquire(context.Background(), 3); err != nil || waited {
		t.Fatalf("full acquisition after cancel: waited=%v err=%v, want immediate", waited, err)
	}
}

// TestLimiterConcurrentNeverOversubscribes: goroutines acquiring 1 to 3
// tokens, some under contexts that expire while they wait, never hold more
// than the limiter's tokens between them, and leave nothing held or
// waiting.
func TestLimiterConcurrentNeverOversubscribes(t *testing.T) {
	const tokens = 4
	l := NewLimiter(tokens, 64)
	var held atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 1 + (g+i)%3
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%4)*50*time.Microsecond+time.Microsecond)
				if _, err := l.Acquire(ctx, n); err == nil {
					if h := held.Add(int64(n)); h > tokens {
						t.Errorf("%d tokens held at once, limiter has %d", h, tokens)
					}
					held.Add(-int64(n))
					l.Release(n)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	if l.InUse() != 0 || l.Waiting() != 0 {
		t.Fatalf("after every goroutine: in use %d, waiting %d", l.InUse(), l.Waiting())
	}
}
