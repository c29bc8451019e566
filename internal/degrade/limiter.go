package degrade

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// ErrShed is returned by a Limiter acquisition that found the waiting bound
// reached: the work is refused at once instead of joining the queue.
var ErrShed = errors.New("degrade: limiter queue full")

// Limiter bounds concurrent work with a fixed number of tokens and bounds
// the acquisitions waiting for them. Waiters are served in arrival order
// and a new acquisition never overtakes them. Only the head waiter takes
// tokens as they are released, so two multi-token acquisitions cannot each
// hold part of what the other needs.
type Limiter struct {
	size, maxWaiting int

	mu      sync.Mutex
	free    int
	waiters []*limitWaiter
}

// limitWaiter is one queued acquisition; ready closes once it holds need
// tokens.
type limitWaiter struct {
	need, held int
	ready      chan struct{}
}

// NewLimiter returns a limiter with tokens tokens and room for maxWaiting
// waiting acquisitions.
func NewLimiter(tokens, maxWaiting int) *Limiter {
	return &Limiter{size: tokens, maxWaiting: maxWaiting, free: tokens}
}

// Acquire takes n tokens and reports whether it had to wait for them. An
// acquisition that finds the waiting bound reached, or asks for more tokens
// than the limiter has, fails at once with ErrShed; one whose ctx ends
// while it waits fails with ctx's error. A failed acquisition holds no
// token. A successful one must Release n.
func (l *Limiter) Acquire(ctx context.Context, n int) (waited bool, err error) {
	return l.AcquireWithin(ctx, n, l.maxWaiting)
}

// AcquireWithin is Acquire under the waiting bound maxWaiting instead of
// the limiter's own, which keeps less important work to the front part of
// the queue.
func (l *Limiter) AcquireWithin(ctx context.Context, n, maxWaiting int) (waited bool, err error) {
	l.mu.Lock()
	if len(l.waiters) == 0 && l.free >= n {
		l.free -= n
		l.mu.Unlock()
		return false, nil
	}
	if n > l.size || len(l.waiters) >= maxWaiting {
		l.mu.Unlock()
		return false, ErrShed
	}
	w := &limitWaiter{need: n, ready: make(chan struct{})}
	l.waiters = append(l.waiters, w)
	l.grantLocked()
	l.mu.Unlock()
	select {
	case <-w.ready:
		return true, nil
	case <-ctx.Done():
	}
	// Return every token taken so far, also when the last arrived with
	// the cancellation.
	l.mu.Lock()
	if i := slices.Index(l.waiters, w); i >= 0 {
		l.waiters = slices.Delete(l.waiters, i, i+1)
	}
	l.free += w.held
	l.grantLocked()
	l.mu.Unlock()
	return true, ctx.Err()
}

// Release returns n tokens.
func (l *Limiter) Release(n int) {
	l.mu.Lock()
	l.free += n
	l.grantLocked()
	l.mu.Unlock()
}

// grantLocked hands free tokens to the head waiter until it holds all it
// needs, then to the next one. The caller holds l.mu.
func (l *Limiter) grantLocked() {
	for len(l.waiters) > 0 && l.free > 0 {
		w := l.waiters[0]
		take := min(w.need-w.held, l.free)
		w.held += take
		l.free -= take
		if w.held < w.need {
			return
		}
		l.waiters = slices.Delete(l.waiters, 0, 1)
		close(w.ready)
	}
}

// Size returns the number of tokens.
func (l *Limiter) Size() int { return l.size }

// Waiting returns the number of acquisitions waiting for tokens.
func (l *Limiter) Waiting() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.waiters)
}

// InUse returns the number of tokens taken, the head waiter's included.
func (l *Limiter) InUse() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size - l.free
}
