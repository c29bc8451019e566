package plancache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/faultinject"
	"netrecovery/internal/scenario"
)

// jitterKey builds a key whose fingerprint bytes are spread like a real
// content hash (testKey only sets bytes 0 and 31, which leaves the
// jitter-draw bytes constant).
func jitterKey(i byte) Key {
	k := testKey(i)
	for j := range k.Fingerprint {
		k.Fingerprint[j] = i*31 + byte(j)*17 + 5
	}
	return k
}

// TestTTLJitterSpreadsExpiry stores a burst of entries at the same fake
// instant and asserts their jittered lifetimes differ: some expire before
// the nominal TTL while others survive until it, so a co-created cohort
// never expires as one thundering herd.
func TestTTLJitterSpreadsExpiry(t *testing.T) {
	const ttl = time.Minute
	now := time.Unix(0, 0)
	c := New(Config{TTL: ttl, TTLJitter: 0.5, Now: func() time.Time { return now }})

	const n = 32
	for i := 0; i < n; i++ {
		_, _, _, err := c.Do(context.Background(), jitterKey(byte(i)), func(context.Context) (*scenario.Plan, error) {
			return testPlan("ISP"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Just before the earliest possible expiry everything is alive.
	now = now.Add(ttl/2 - time.Second)
	alive := 0
	for i := 0; i < n; i++ {
		if _, _, ok := c.Peek(jitterKey(byte(i))); ok {
			alive++
		}
	}
	if alive != n {
		t.Fatalf("alive at TTL·(1−jitter)⁻ = %d, want %d", alive, n)
	}

	// Three quarters in, the cohort must be split: some expired, some not.
	now = now.Add(ttl / 4)
	alive = 0
	for i := 0; i < n; i++ {
		if _, _, ok := c.Peek(jitterKey(byte(i))); ok {
			alive++
		}
	}
	if alive == 0 || alive == n {
		t.Fatalf("alive at 0.75·TTL = %d of %d: jitter did not spread expiries", alive, n)
	}

	// Past the nominal TTL everything is gone.
	now = now.Add(ttl)
	for i := 0; i < n; i++ {
		if _, _, ok := c.Peek(jitterKey(byte(i))); ok {
			t.Fatalf("entry %d alive past the nominal TTL", i)
		}
	}
}

// TestTTLJitterDeterministic: an entry's effective lifetime is a pure
// function of its key, identical across cache instances.
func TestTTLJitterDeterministic(t *testing.T) {
	a := New(Config{TTL: time.Minute, TTLJitter: 0.3})
	b := New(Config{TTL: time.Minute, TTLJitter: 0.3})
	for i := 0; i < 16; i++ {
		k := jitterKey(byte(i))
		if ta, tb := a.effectiveTTL(k), b.effectiveTTL(k); ta != tb {
			t.Fatalf("key %d: effective TTL %v vs %v", i, ta, tb)
		}
		if ta := a.effectiveTTL(k); ta < 42*time.Second || ta > time.Minute {
			t.Fatalf("key %d: effective TTL %v outside [0.7·TTL, TTL]", i, ta)
		}
	}
}

// TestLeaderPanicDoesNotStrandWaiters is the singleflight regression test:
// a panicking leader must close the flight and share a typed error with
// every coalesced follower instead of leaving them blocked forever.
func TestLeaderPanicDoesNotStrandWaiters(t *testing.T) {
	c := New(Config{})
	key := testKey(1)

	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, 4)

	// Leader: panics mid-solve.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, errs[0] = c.Do(context.Background(), key, func(context.Context) (*scenario.Plan, error) {
			close(leaderIn)
			<-release
			panic("solver bug")
		})
	}()
	<-leaderIn

	// Followers coalesce behind the leader.
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _, errs[i] = c.Do(context.Background(), key, func(context.Context) (*scenario.Plan, error) {
				t.Error("follower must not solve after a leader panic: the panic error is shared")
				return testPlan("ISP"), nil
			})
		}(i)
	}
	// Give the followers time to park on the inflight call, then let the
	// leader panic.
	time.Sleep(20 * time.Millisecond)
	close(release)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters stranded after leader panic")
	}

	for i, err := range errs {
		if !degrade.IsPanic(err) {
			t.Fatalf("caller %d: err = %v, want a PanicError", i, err)
		}
	}
	var pe *degrade.PanicError
	if errors.As(errs[0], &pe); pe.Op != "plancache:leader:ISP" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}

	// The flight must be cleaned up: a later Do solves normally.
	plan, outcome, _, err := c.Do(context.Background(), key, func(context.Context) (*scenario.Plan, error) {
		return testPlan("ISP"), nil
	})
	if err != nil || plan == nil || outcome != Miss {
		t.Fatalf("post-panic Do: plan=%v outcome=%v err=%v", plan, outcome, err)
	}
}

// TestGetStaleServesExpired: GetStale returns entries past their TTL
// without refreshing them, and counts StaleServed.
func TestGetStaleServesExpired(t *testing.T) {
	now := time.Unix(0, 0)
	c := New(Config{TTL: time.Minute, Now: func() time.Time { return now }})
	key := testKey(1)
	if _, _, _, err := c.Do(context.Background(), key, func(context.Context) (*scenario.Plan, error) {
		return testPlan("ISP"), nil
	}); err != nil {
		t.Fatal(err)
	}

	// Fresh: served, not stale.
	plan, age, stale, ok := c.GetStale(key)
	if !ok || stale || plan == nil || age != 0 {
		t.Fatalf("fresh GetStale: ok=%v stale=%v age=%v", ok, stale, age)
	}

	// Expired: Peek refuses, GetStale serves.
	now = now.Add(2 * time.Minute)
	if _, _, ok := c.Peek(key); ok {
		t.Fatal("Peek returned an expired entry")
	}
	// Store and expire a fresh key to exercise the serve-without-refresh
	// path.
	key2 := testKey(2)
	if _, _, _, err := c.Do(context.Background(), key2, func(context.Context) (*scenario.Plan, error) {
		return testPlan("ISP"), nil
	}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	plan, age, stale, ok = c.GetStale(key2)
	if !ok || !stale || plan == nil || age != 2*time.Minute {
		t.Fatalf("expired GetStale: ok=%v stale=%v age=%v", ok, stale, age)
	}
	// Served but not refreshed: a second stale read sees the same age base.
	if _, age2, stale2, ok2 := c.GetStale(key2); !ok2 || !stale2 || age2 != 2*time.Minute {
		t.Fatalf("second GetStale: ok=%v stale=%v age=%v", ok2, stale2, age2)
	}
	if s := c.Stats(); s.StaleServed != 3 {
		t.Fatalf("StaleServed = %d, want 3", s.StaleServed)
	}

	// Missing key.
	if _, _, _, ok := c.GetStale(testKey(9)); ok {
		t.Fatal("GetStale invented an entry")
	}
}

// TestDoShardFault: an injected cache-shard fault surfaces as a transient
// UnavailableError without touching the flight or the stored entries.
func TestDoShardFault(t *testing.T) {
	c := New(Config{})
	key := testKey(1)
	if _, _, _, err := c.Do(context.Background(), key, func(context.Context) (*scenario.Plan, error) {
		return testPlan("ISP"), nil
	}); err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.Profile{Seed: 1, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointCacheShard: {ErrorRate: 1},
	}})
	defer faultinject.Disarm()

	_, _, _, err := c.Do(context.Background(), key, func(context.Context) (*scenario.Plan, error) {
		t.Error("solve must not run when the shard is unavailable")
		return nil, nil
	})
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnavailableError", err)
	}
	if !degrade.IsTransient(err) {
		t.Fatal("UnavailableError must be transient")
	}
	if s := c.Stats(); s.Unavailable != 1 {
		t.Fatalf("Unavailable = %d", s.Unavailable)
	}

	// Disarmed: the cached entry is still there and serves.
	faultinject.Disarm()
	_, outcome, _, err := c.Do(context.Background(), key, func(context.Context) (*scenario.Plan, error) {
		return testPlan("ISP"), nil
	})
	if err != nil || outcome != Hit {
		t.Fatalf("post-fault Do: outcome=%v err=%v", outcome, err)
	}
}

// TestSolveBypass: Solve is Fetch through a healthy cache. Without a cache,
// or with the key's shard refused by an injected fault, it solves directly
// and reports Bypass, storing nothing; a bypassed solve's error is the
// solver's.
func TestSolveBypass(t *testing.T) {
	ctx := context.Background()
	key := testKey(1)
	solves := 0
	solve := func(context.Context) (*scenario.Plan, error) {
		solves++
		return testPlan("ISP"), nil
	}

	var none *Cache
	if a, err := none.Solve(ctx, key, solve); err != nil || a.Outcome != Bypass || a.Plan == nil || solves != 1 {
		t.Fatalf("nil cache: outcome=%v plan=%v err=%v solves=%d", a.Outcome, a.Plan, err, solves)
	}

	c := New(Config{})
	faultinject.Arm(faultinject.Profile{Seed: 1, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointCacheShard: {ErrorRate: 1},
	}})
	a, err := c.Solve(ctx, key, solve)
	faultinject.Disarm()
	if err != nil || a.Outcome != Bypass || a.Plan == nil || solves != 2 {
		t.Fatalf("shard fault: outcome=%v plan=%v err=%v solves=%d", a.Outcome, a.Plan, err, solves)
	}
	if st := c.Stats(); st.Unavailable != 1 || st.Entries != 0 {
		t.Fatalf("shard fault: Unavailable=%d Entries=%d, want 1 and 0", st.Unavailable, st.Entries)
	}

	for _, want := range []Outcome{Miss, Hit} {
		if a, err := c.Solve(ctx, key, solve); err != nil || a.Outcome != want {
			t.Fatalf("healthy cache: outcome=%v err=%v, want %v", a.Outcome, err, want)
		}
	}
	if solves != 3 {
		t.Fatalf("solves = %d, want 3", solves)
	}

	boom := errors.New("boom")
	if a, err := none.Solve(ctx, key, func(context.Context) (*scenario.Plan, error) { return nil, boom }); !errors.Is(err, boom) || a.Outcome != Bypass {
		t.Fatalf("bypassed failure: outcome=%v err=%v, want bypass and the solver's error", a.Outcome, err)
	}
	if Bypass.String() != "bypass" {
		t.Fatalf("Bypass renders as %q", Bypass.String())
	}
}
