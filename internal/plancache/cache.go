// Package plancache is the content-addressed recovery-plan cache of the
// serving stack. Plans are deterministic functions of an immutable Scenario
// snapshot plus the solver configuration, so they are cached by content
// hash: the key combines the scenario fingerprint (see
// scenario.Fingerprint), the algorithm name and a digest of the
// answer-relevant solver options.
//
// The cache is a sharded LRU with TTL + max-entries eviction and
// singleflight request coalescing: N concurrent requests for the same key
// trigger exactly one solve, the rest wait for the leader and share its
// plan. Hit/miss/coalesce/eviction counters feed the server's /metrics
// endpoint and the facade's PlanCache.Stats.
package plancache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/faultinject"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/obs"
	"netrecovery/internal/scenario"
)

// Key addresses one cached plan: the scenario content hash, the algorithm
// that solved it, and the digest of the solver options that can change the
// answer. Keys are comparable values, usable directly as map keys.
type Key struct {
	// Fingerprint is scenario.Fingerprint() of the solved snapshot.
	Fingerprint [32]byte
	// Algorithm is the registry name of the solver (ISP, OPT, ...).
	Algorithm string
	// Options is ParamsDigest of the solver options.
	Options [32]byte
}

// ParamsDigest hashes the answer-relevant solver options into the Options
// component of a Key: the ISP fast/exact mode and the OPT search budget.
// Params that can never change the resulting plan are deliberately
// excluded — Workers (the parallel search is deterministic across worker
// counts, see internal/milp) and Progress (pure observability) — so requests
// differing only in those knobs share cache entries.
func ParamsDigest(p heuristics.Params) [32]byte {
	var buf [2 + 8 + 8]byte
	buf[0] = 1 // digest layout version
	if p.Fast {
		buf[1] = 1
	}
	binary.BigEndian.PutUint64(buf[2:], uint64(p.OPTTimeLimit))
	binary.BigEndian.PutUint64(buf[10:], uint64(p.OPTMaxNodes))
	return sha256.Sum256(buf[:])
}

// Outcome reports how a lookup obtained its plan.
type Outcome int

// Lookup outcomes.
const (
	// Miss: this call was the leader and executed the solve.
	Miss Outcome = iota
	// Hit: the plan was served from the cache without any solve.
	Hit
	// Coalesced: another in-flight call was already solving the same key;
	// this call waited for it and shares its plan.
	Coalesced
	// Bypass: no cache answered (Solve without a cache, or with the key's
	// shard refused by an injected fault); the plan came from a direct
	// solve and was not stored.
	Bypass
)

// String renders the outcome as the wire/metrics label.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	case Bypass:
		return "bypass"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Config parameterises New.
type Config struct {
	// MaxEntries bounds the number of cached plans across all shards
	// (rounded up to a multiple of the shard count; 0 means 1024). The
	// least-recently-used entry of a full shard is evicted on insert.
	MaxEntries int
	// TTL is the maximum age of a cached plan (0 = never expires). Expired
	// entries are dropped lazily on lookup.
	TTL time.Duration
	// TTLJitter shortens each entry's effective TTL by up to this fraction
	// of TTL, derived deterministically from the entry's fingerprint. A
	// value of 0.1 spreads the lifetimes of entries created together over
	// [0.9·TTL, TTL], so a burst of plans cached at the same instant does
	// not expire at the same instant and trigger a thundering herd of cold
	// re-solves. Clamped to [0, 1]; 0 disables jitter.
	TTLJitter float64
	// Shards is the number of independently locked shards (0 = 16, rounded
	// up to a power of two). More shards reduce lock contention under
	// concurrent load.
	Shards int
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits, Misses and Coalesced count Do outcomes.
	Hits, Misses, Coalesced uint64
	// Evictions counts entries dropped by LRU pressure, Expired entries
	// dropped because their TTL passed.
	Evictions, Expired uint64
	// Reelections counts followers that found their leader's solve cancelled
	// and went back to compete for leadership. A high rate means leaders are
	// being cancelled mid-solve while demand for the key persists (e.g.
	// impatient clients disconnecting under load).
	Reelections uint64
	// StaleServed counts GetStale lookups that returned an entry (the
	// degradation chain's last resort).
	StaleServed uint64
	// Unavailable counts Do calls refused by an injected cache-shard fault.
	Unavailable uint64
	// Entries is the current number of cached plans.
	Entries int
}

// entry is one cached plan.
type entry struct {
	key  Key
	plan *scenario.Plan
	// view is the plan's rendered form, replaced with the plan.
	view   *view
	stored time.Time
	// ttl is this entry's jittered effective TTL (0 = never expires),
	// fixed at store time so the entry's lifetime is a deterministic
	// function of its key.
	ttl time.Duration
	// expireCounted dedups the Expired stat: an expired entry now outlives
	// its TTL (servable via GetStale until refreshed), so Do may observe
	// the same expiry many times.
	expireCounted bool
	element       *list.Element
}

// expiredLocked reports whether e is past its effective TTL at time now.
func (e *entry) expiredLocked(now time.Time) bool {
	return e.ttl > 0 && now.Sub(e.stored) > e.ttl
}

// UnavailableError reports a cache shard refused by an injected fault.
// It is transient: the caller may retry, or bypass the cache and solve
// directly, as Solve does.
type UnavailableError struct {
	Err error
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("plancache: shard unavailable: %v", e.Err)
}

func (e *UnavailableError) Unwrap() error { return e.Err }

// Transient marks shard unavailability as retryable.
func (e *UnavailableError) Transient() bool { return true }

// call is one in-flight solve that followers coalesce onto.
type call struct {
	done chan struct{}
	plan *scenario.Plan
	view *view
	err  error
}

// Answer is the result of Fetch: the plan, how it was obtained, and the
// rendering slot of the entry that holds it.
type Answer struct {
	// Plan is shared with every other caller of the key and must not be
	// mutated.
	Plan    *scenario.Plan
	Outcome Outcome
	// Age is the time the plan spent in the cache (zero for Miss and
	// Coalesced).
	Age  time.Duration
	view *view
}

// view is one stored plan's rendered form: whatever response form the
// caller derives from the plan (the server's wire.Plan), which is a
// deterministic function of the key and the plan. It is computed at most
// once per stored plan and dropped with it, on eviction or when a re-solve
// replaces the plan.
type view struct {
	once sync.Once
	done atomic.Bool
	v    any
}

// Rendered returns the plan's rendered form if a caller has produced it.
func (a Answer) Rendered() (any, bool) {
	if a.view == nil || !a.view.done.Load() {
		return nil, false
	}
	return a.view.v, true
}

// Render returns the plan's rendered form, calling render only if no caller
// has produced it yet; the result stays with the cache entry for every
// later Answer of the same stored plan. An Answer no entry holds (a
// bypassed plan, or the one the server builds for a stale plan) calls
// render every time.
func (a Answer) Render(render func() any) any {
	if a.view == nil {
		return render()
	}
	a.view.once.Do(func() {
		a.view.v = render()
		a.view.done.Store(true)
	})
	return a.view.v
}

// shard is one independently locked slice of the key space.
type shard struct {
	mu       sync.Mutex
	entries  map[Key]*entry
	lru      *list.List // front = most recently used
	inflight map[Key]*call
}

// Cache is a sharded, coalescing, content-addressed plan cache. It is safe
// for concurrent use. The cached *scenario.Plan values are shared between
// callers and must be treated as immutable.
type Cache struct {
	shards      []*shard
	shardMax    int
	ttl         time.Duration
	ttlJitter   float64
	now         func() time.Time
	hits        atomic.Uint64
	misses      atomic.Uint64
	coalesced   atomic.Uint64
	evictions   atomic.Uint64
	expired     atomic.Uint64
	reelections atomic.Uint64
	staleServed atomic.Uint64
	unavailable atomic.Uint64
}

// New returns a cache configured by cfg.
func New(cfg Config) *Cache {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 16
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < shards {
		n <<= 1
	}
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	perShard := (maxEntries + n - 1) / n
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	jitter := cfg.TTLJitter
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 1 {
		jitter = 1
	}
	c := &Cache{
		shards:    make([]*shard, n),
		shardMax:  perShard,
		ttl:       cfg.TTL,
		ttlJitter: jitter,
		now:       now,
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries:  make(map[Key]*entry),
			lru:      list.New(),
			inflight: make(map[Key]*call),
		}
	}
	return c
}

// shardFor selects the shard of a key from its fingerprint (already a
// uniform hash; the algorithm and options are folded in so keys differing
// only there still spread).
func (c *Cache) shardFor(k Key) *shard {
	return c.shards[c.shardIndex(k)]
}

// shardIndex is the shard number a key maps to (also a trace attribute).
func (c *Cache) shardIndex(k Key) int {
	h := binary.BigEndian.Uint64(k.Fingerprint[:8])
	h ^= binary.BigEndian.Uint64(k.Options[:8])
	for i := 0; i < len(k.Algorithm); i++ {
		h = h*131 + uint64(k.Algorithm[i])
	}
	return int(h & uint64(len(c.shards)-1))
}

// Do returns the plan for key, solving at most once per key across all
// concurrent callers: a cached fresh plan is returned immediately (Hit); if
// another call is already solving the key, this call waits for it and shares
// the result (Coalesced); otherwise this call becomes the leader, runs solve
// and stores the plan (Miss).
//
// Cancelling ctx while waiting — either coalesced behind a leader or as the
// leader inside solve — returns promptly with the context's error. Errors
// are never cached; a leader whose solve failed with its own cancellation
// does not poison waiting followers, they re-elect a new leader and solve
// again. The age result is the time the returned plan spent in the cache
// (zero for Miss and Coalesced).
//
// The returned plan is shared with every other caller of the same key and
// must not be mutated.
func (c *Cache) Do(ctx context.Context, key Key, solve func(ctx context.Context) (*scenario.Plan, error)) (plan *scenario.Plan, outcome Outcome, age time.Duration, err error) {
	a, err := c.Fetch(ctx, key, solve)
	return a.Plan, a.Outcome, a.Age, err
}

// Fetch is Do returning an Answer, which also carries the stored plan's
// rendering slot (see Answer.Render).
func (c *Cache) Fetch(ctx context.Context, key Key, solve func(ctx context.Context) (*scenario.Plan, error)) (a Answer, err error) {
	ctx, sp := obs.StartSpan(ctx, "cache.lookup")
	if sp != nil {
		sp.SetAttr("algorithm", key.Algorithm)
		sp.SetInt("shard", int64(c.shardIndex(key)))
		defer func() {
			if err != nil {
				sp.SetError(err)
			} else {
				sp.SetAttr("outcome", a.Outcome.String())
				// The miss leader is the caller that executed the solve
				// (coalesced followers shared its result).
				sp.SetBool("leader", a.Outcome == Miss)
			}
			sp.End()
		}()
	}
	return c.fetch(ctx, key, solve)
}

// fetch is Fetch minus the tracing shell.
func (c *Cache) fetch(ctx context.Context, key Key, solve func(ctx context.Context) (*scenario.Plan, error)) (Answer, error) {
	if err := faultinject.Fire(ctx, faultinject.PointCacheShard); err != nil {
		var ie *faultinject.InjectedError
		if errors.As(err, &ie) {
			c.unavailable.Add(1)
			return Answer{}, &UnavailableError{Err: err}
		}
		// A context error out of an injected delay.
		return Answer{}, err
	}
	s := c.shardFor(key)
	for {
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			if e.expiredLocked(c.now()) {
				// Expired: fall through to a fresh solve, but leave the
				// entry in place — a successful solve overwrites it, and
				// until then it remains servable through GetStale (the
				// degradation chain's stale stage). Count the expiry only
				// once per stored generation.
				if !e.expireCounted {
					e.expireCounted = true
					c.expired.Add(1)
				}
			} else {
				s.lru.MoveToFront(e.element)
				a := Answer{Plan: e.plan, Outcome: Hit, Age: c.now().Sub(e.stored), view: e.view}
				s.mu.Unlock()
				c.hits.Add(1)
				return a, nil
			}
		}
		if cl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-cl.done:
			case <-ctx.Done():
				return Answer{Outcome: Coalesced}, ctx.Err()
			}
			if cl.err == nil {
				c.coalesced.Add(1)
				return Answer{Plan: cl.plan, Outcome: Coalesced, view: cl.view}, nil
			}
			// The leader failed. Its own cancellation must not poison this
			// follower: retry (and typically become the new leader). Any
			// other solver error is deterministic for the key — share it.
			if errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded) {
				c.reelections.Add(1)
				continue
			}
			return Answer{Outcome: Coalesced}, cl.err
		}
		cl := &call{done: make(chan struct{})}
		s.inflight[key] = cl
		s.mu.Unlock()

		// The leader's solve runs behind a recovery boundary: a panicking
		// solver must become an error shared with the coalesced followers,
		// not a stranded inflight call whose done channel never closes.
		cl.plan, cl.err = c.leaderSolve(ctx, key, solve)
		if cl.err == nil && cl.plan == nil {
			cl.err = errors.New("plancache: solve returned a nil plan")
		}

		s.mu.Lock()
		delete(s.inflight, key)
		if cl.err == nil {
			cl.view = s.storeLocked(c, key, cl.plan)
		}
		s.mu.Unlock()
		close(cl.done)

		if cl.err != nil {
			return Answer{}, cl.err
		}
		c.misses.Add(1)
		return Answer{Plan: cl.plan, Outcome: Miss, view: cl.view}, nil
	}
}

// Solve is the cached solve of every plan entry point: Fetch, except that
// a nil c, or a shard refused by an injected fault, answers with a direct
// solve reported as Outcome Bypass — the solver is healthy, only the cache
// is not, so the request is served uncached instead of failed. Every other
// failure is Fetch's.
func (c *Cache) Solve(ctx context.Context, key Key, solve func(ctx context.Context) (*scenario.Plan, error)) (Answer, error) {
	if c != nil {
		a, err := c.Fetch(ctx, key, solve)
		if err == nil {
			return a, nil
		}
		var unavailable *UnavailableError
		if !errors.As(err, &unavailable) {
			return a, err
		}
	}
	plan, err := solve(ctx)
	return Answer{Plan: plan, Outcome: Bypass}, err
}

// leaderSolve executes the leader's solve with panic recovery, converting
// a panicking solver into a *degrade.PanicError so the normal
// inflight-cleanup path runs and followers share the error instead of
// waiting forever.
func (c *Cache) leaderSolve(ctx context.Context, key Key, solve func(ctx context.Context) (*scenario.Plan, error)) (plan *scenario.Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			plan, err = nil, degrade.Recovered("plancache:leader:"+key.Algorithm, r, debug.Stack())
		}
	}()
	return solve(ctx)
}

// Peek returns the cached plan for key without counting a hit — the
// cluster peer-fill endpoint's lookup, which must not distort the local
// hit/miss ratio (a peer's lookup is not local demand). It respects the
// TTL (expired entries are not served, but are left in place for GetStale)
// and refreshes LRU recency: a plan the fleet keeps asking for
// is a plan worth keeping.
func (c *Cache) Peek(key Key) (*scenario.Plan, time.Duration, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.expiredLocked(c.now()) {
		return nil, 0, false
	}
	s.lru.MoveToFront(e.element)
	return e.plan, c.now().Sub(e.stored), true
}

// GetStale returns the cached plan for key even when its TTL has passed —
// the degradation chain's last resort when every solver stage has failed
// or timed out. A stale entry is served (and counted in StaleServed) but
// deliberately left in place un-refreshed: the next Do still sees it as
// expired and re-solves. The age return is the entry's time in cache; the
// stale return reports whether the TTL had passed.
func (c *Cache) GetStale(key Key) (plan *scenario.Plan, age time.Duration, stale, ok bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, present := s.entries[key]
	if !present {
		return nil, 0, false, false
	}
	s.lru.MoveToFront(e.element)
	c.staleServed.Add(1)
	return e.plan, c.now().Sub(e.stored), e.expiredLocked(c.now()), true
}

// storeLocked inserts (or refreshes) an entry, evicting the shard's LRU tail
// when full, and returns the stored plan's rendering slot. Callers hold
// s.mu.
func (s *shard) storeLocked(c *Cache, key Key, plan *scenario.Plan) *view {
	if e, ok := s.entries[key]; ok {
		e.plan = plan
		e.view = new(view)
		e.stored = c.now()
		e.expireCounted = false
		s.lru.MoveToFront(e.element)
		return e.view
	}
	for s.lru.Len() >= c.shardMax {
		tail := s.lru.Back()
		if tail == nil {
			break
		}
		s.removeLocked(tail.Value.(*entry))
		c.evictions.Add(1)
	}
	e := &entry{key: key, plan: plan, view: new(view), stored: c.now(), ttl: c.effectiveTTL(key)}
	e.element = s.lru.PushFront(e)
	s.entries[key] = e
	return e.view
}

// effectiveTTL is the configured TTL shortened by the key's deterministic
// jitter fraction: u is drawn uniformly from the fingerprint (already a
// content hash, so uniform and stable for the key), giving each entry a
// lifetime in [TTL·(1−TTLJitter), TTL] that never varies between runs.
func (c *Cache) effectiveTTL(k Key) time.Duration {
	if c.ttl <= 0 {
		return 0
	}
	if c.ttlJitter <= 0 {
		return c.ttl
	}
	u := float64(binary.BigEndian.Uint64(k.Fingerprint[16:24])>>11) / float64(uint64(1)<<53)
	return c.ttl - time.Duration(c.ttlJitter*u*float64(c.ttl))
}

// removeLocked drops an entry. Callers hold s.mu.
func (s *shard) removeLocked(e *entry) {
	s.lru.Remove(e.element)
	delete(s.entries, e.key)
}

// Len returns the current number of cached plans.
func (c *Cache) Len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += len(s.entries)
		s.mu.Unlock()
	}
	return total
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Coalesced:   c.coalesced.Load(),
		Evictions:   c.evictions.Load(),
		Expired:     c.expired.Load(),
		Reelections: c.reelections.Load(),
		StaleServed: c.staleServed.Load(),
		Unavailable: c.unavailable.Load(),
		Entries:     c.Len(),
	}
}
