package cluster

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/obs"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/splitmix"
	"netrecovery/internal/wire"
)

// Defaults of the zero Config fields.
const (
	// DefaultMailboxSize bounds the pending peer-fill queue per peer.
	DefaultMailboxSize = 32
	// DefaultWorkersPerPeer caps concurrent in-flight fills per peer.
	DefaultWorkersPerPeer = 4
	// DefaultFillTimeout is the per-fill budget before falling back to a
	// local solve.
	DefaultFillTimeout = 750 * time.Millisecond
	// DefaultTimeoutJitter is the fraction by which fill timeouts are
	// deterministically spread, so simultaneous fills against a slow peer
	// do not all give up (and re-solve locally) at the same instant.
	DefaultTimeoutJitter = 0.2
	// DefaultProbeInterval is the /healthz probing cadence.
	DefaultProbeInterval = 2 * time.Second
	// DefaultProbeTimeout bounds one /healthz probe.
	DefaultProbeTimeout = time.Second
	// DefaultProbeFailures is how many consecutive failed probes eject a
	// peer from the ring.
	DefaultProbeFailures = 3
)

// Config parameterises New.
type Config struct {
	// Self is this node's advertised base URL (e.g. "http://10.0.0.1:8080").
	// It must appear in Peers; fingerprints the ring assigns to Self are
	// solved locally, never peer-filled.
	Self string
	// Peers is the static cluster membership: every node's advertised base
	// URL, including Self. Order does not matter (the ring canonicalises).
	Peers []string
	// VirtualNodes is the ring's vnode count per peer (0 =
	// DefaultVirtualNodes).
	VirtualNodes int
	// MailboxSize bounds the pending fill queue per peer; a fill finding
	// the mailbox full falls back to a local solve immediately (0 =
	// DefaultMailboxSize).
	MailboxSize int
	// WorkersPerPeer caps the in-flight fills per peer (0 =
	// DefaultWorkersPerPeer).
	WorkersPerPeer int
	// FillTimeout is the per-fill budget (0 = DefaultFillTimeout).
	FillTimeout time.Duration
	// TimeoutJitter spreads each fill's effective timeout over
	// [FillTimeout·(1−J), FillTimeout], deterministically (negative = 0,
	// 0 = DefaultTimeoutJitter; clamped to [0, 1]).
	TimeoutJitter float64
	// ProbeInterval is the /healthz probing cadence (0 =
	// DefaultProbeInterval, negative = probing disabled; tests drive
	// ProbeOnce directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (0 = DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// ProbeFailures ejects a peer after this many consecutive failed
	// probes (0 = DefaultProbeFailures).
	ProbeFailures int
	// Breaker tunes the per-peer circuit breakers (zero values pick the
	// degrade.BreakerConfig defaults).
	Breaker degrade.BreakerConfig
	// Client is the HTTP client used for fills and probes (nil = a
	// default client; per-request contexts carry the timeouts).
	Client *http.Client
	// Seed roots the deterministic jitter stream.
	Seed uint64
	// Logger, when non-nil, receives ring-membership lifecycle events
	// (peer ejection after consecutive probe failures, readmission).
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.MailboxSize <= 0 {
		c.MailboxSize = DefaultMailboxSize
	}
	if c.WorkersPerPeer <= 0 {
		c.WorkersPerPeer = DefaultWorkersPerPeer
	}
	if c.FillTimeout <= 0 {
		c.FillTimeout = DefaultFillTimeout
	}
	if c.TimeoutJitter == 0 {
		c.TimeoutJitter = DefaultTimeoutJitter
	}
	if c.TimeoutJitter < 0 {
		c.TimeoutJitter = 0
	}
	if c.TimeoutJitter > 1 {
		c.TimeoutJitter = 1
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultProbeTimeout
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = DefaultProbeFailures
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Stats is a point-in-time snapshot of the cluster counters, exported on
// the server's /metrics.
type Stats struct {
	// Peers is the static membership size (including self); Alive counts
	// members currently in the ring (self always counts).
	Peers, Alive int
	// Fills counts peer-fill attempts that were actually dispatched;
	// Hits/Misses split them by whether the owner had the plan cached.
	Fills, Hits, Misses uint64
	// Errors counts transport/decode failures, Timeouts fills that hit
	// their (jittered) deadline. Both fall back to a local solve.
	Errors, Timeouts uint64
	// Dropped counts fills refused because the owner's mailbox was full —
	// the bounded queue shedding load instead of fanning in unboundedly.
	Dropped uint64
	// BreakerSkipped counts fills refused by the owner's open circuit
	// breaker.
	BreakerSkipped uint64
	// Ejections and Readmissions count ring membership changes driven by
	// the health prober.
	Ejections, Readmissions uint64
}

// fillResult is what a peer worker hands back to a waiting fill.
type fillResult struct {
	plan  *scenario.Plan
	age   time.Duration
	found bool
	err   error
}

// fillReq is one queued peer-fill.
type fillReq struct {
	ctx  context.Context
	url  string
	done chan fillResult // buffered(1); worker never blocks on it
}

// peer is one remote cluster member.
type peer struct {
	addr    string
	mailbox chan *fillReq
	breaker *degrade.Breaker
	down    atomic.Bool

	// probeFails is touched only by the prober goroutine (or ProbeOnce).
	probeFails int
}

// Cluster owns the ring, the peer mailboxes and the health prober. Create
// with New, start probing with Start, stop everything with Close.
type Cluster struct {
	cfg  Config
	ring *Ring
	self string
	// peers maps address -> remote peer (self excluded).
	peers map[string]*peer

	fills, hits, misses     atomic.Uint64
	errs, timeouts, dropped atomic.Uint64
	breakerSkipped          atomic.Uint64
	ejections, readmissions atomic.Uint64
	jitterSeq               atomic.Uint64

	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// New builds the cluster from cfg. It validates that Self is a member and
// spawns the bounded worker pool for every remote peer; call Start to begin
// health probing and Close to shut everything down.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self address required")
	}
	ring := NewRing(cfg.Peers, cfg.VirtualNodes)
	selfSeen := false
	for _, p := range ring.Peers() {
		if p == cfg.Self {
			selfSeen = true
		}
	}
	if !selfSeen {
		return nil, fmt.Errorf("cluster: Self %q not in Peers", cfg.Self)
	}
	c := &Cluster{
		cfg:   cfg,
		ring:  ring,
		self:  cfg.Self,
		peers: make(map[string]*peer),
		stop:  make(chan struct{}),
	}
	for _, addr := range ring.Peers() {
		if addr == cfg.Self {
			continue
		}
		p := &peer{
			addr:    addr,
			mailbox: make(chan *fillReq, cfg.MailboxSize),
			breaker: degrade.NewBreaker(cfg.Breaker),
		}
		c.peers[addr] = p
		for w := 0; w < cfg.WorkersPerPeer; w++ {
			c.wg.Add(1)
			go c.peerWorker(p)
		}
	}
	return c, nil
}

// Self returns this node's advertised address.
func (c *Cluster) Self() string { return c.self }

// Size returns the static membership size, including self.
func (c *Cluster) Size() int { return len(c.peers) + 1 }

// alive reports whether addr is currently in the ring: self always, remote
// peers unless the prober has ejected them.
func (c *Cluster) alive(addr string) bool {
	if addr == c.self {
		return true
	}
	p, ok := c.peers[addr]
	return ok && !p.down.Load()
}

// Owner returns the live owner of fp (ok=false only if the ring is empty).
func (c *Cluster) Owner(fp [32]byte) (string, bool) {
	return c.ring.Owner(fp, c.alive)
}

// IsOwner reports whether this node owns fp (true also when every remote
// peer is ejected and ownership collapsed onto self).
func (c *Cluster) IsOwner(fp [32]byte) bool {
	owner, ok := c.Owner(fp)
	return !ok || owner == c.self
}

// jitteredTimeout draws the next fill deadline from
// [FillTimeout·(1−J), FillTimeout]: a deterministic splitmix64 stream, so a
// burst of fills against one slow peer gives up staggered, not in lockstep.
func (c *Cluster) jitteredTimeout() time.Duration {
	j := c.cfg.TimeoutJitter
	if j <= 0 {
		return c.cfg.FillTimeout
	}
	n := c.jitterSeq.Add(1)
	u := float64(splitmix.Next(c.cfg.Seed^n*0x9e3779b97f4a7c15)>>11) / float64(uint64(1)<<53)
	return c.cfg.FillTimeout - time.Duration(j*u*float64(c.cfg.FillTimeout))
}

// FillURL is the peer-fill endpoint path for a cache key, relative to the
// owner's base URL. The options digest rides in a query parameter, hex
// encoded like the fingerprint.
func FillURL(base string, key plancache.Key) string {
	return fmt.Sprintf("%s/v1/peer/plan/%s?algorithm=%s&options=%s",
		base,
		hex.EncodeToString(key.Fingerprint[:]),
		url.QueryEscape(key.Algorithm),
		hex.EncodeToString(key.Options[:]))
}

// Fill attempts a peer-fill of key from its owner. It returns ok=false —
// telling the caller to solve locally — whenever this node is the owner,
// the owner is ejected, its breaker is open, its mailbox is full, the fill
// timed out, errored, or the owner simply does not have the plan cached.
// Concurrent identical fills on one node are already single-flight: Fill is
// called from inside the plan cache's coalescing leader, so at most one
// fill per key is in flight per node.
//
// The returned plan is the shared cached value; callers must treat it as
// immutable.
func (c *Cluster) Fill(ctx context.Context, key plancache.Key) (plan *scenario.Plan, age time.Duration, ok bool) {
	owner, found := c.Owner(key.Fingerprint)
	if !found || owner == c.self {
		return nil, 0, false
	}
	p := c.peers[owner]
	if p == nil {
		return nil, 0, false
	}
	// The fill span's ctx rides inside fillReq, so the worker's HTTP round
	// trip can stamp its traceparent on the request — the owner adopts the
	// trace ID and the two nodes' traces stitch into one.
	ctx, sp := obs.StartSpan(ctx, "peer.fill")
	sp.SetAttr("owner", owner)
	defer sp.End()
	if !p.breaker.Allow() {
		c.breakerSkipped.Add(1)
		sp.SetAttr("outcome", "breaker_open")
		return nil, 0, false
	}
	req := &fillReq{ctx: ctx, url: FillURL(owner, key), done: make(chan fillResult, 1)}
	select {
	case p.mailbox <- req:
	default:
		// Bounded mailbox full: shed the fill, solve locally. The breaker
		// admission is returned without an outcome — queue pressure says
		// nothing about the peer's health.
		p.breaker.Cancel()
		c.dropped.Add(1)
		sp.SetAttr("outcome", "mailbox_full")
		return nil, 0, false
	}
	c.fills.Add(1)
	select {
	case res := <-req.done:
		switch {
		case res.err != nil:
			if errors.Is(res.err, context.DeadlineExceeded) {
				c.timeouts.Add(1)
				sp.SetAttr("outcome", "timeout")
			} else {
				c.errs.Add(1)
				sp.SetAttr("outcome", "error")
			}
			sp.SetError(res.err)
			p.breaker.Record(false)
			return nil, 0, false
		case !res.found:
			c.misses.Add(1)
			p.breaker.Record(true)
			sp.SetAttr("outcome", "miss")
			return nil, 0, false
		default:
			c.hits.Add(1)
			p.breaker.Record(true)
			sp.SetAttr("outcome", "hit")
			return res.plan, res.age, true
		}
	case <-ctx.Done():
		// The requester went away; the worker will finish (or time out)
		// on its own and drop the buffered result.
		p.breaker.Cancel()
		sp.SetAttr("outcome", "cancelled")
		return nil, 0, false
	case <-c.stop:
		p.breaker.Cancel()
		sp.SetAttr("outcome", "shutdown")
		return nil, 0, false
	}
}

// peerWorker drains one peer's mailbox; WorkersPerPeer of them bound the
// in-flight fills per peer.
func (c *Cluster) peerWorker(p *peer) {
	defer c.wg.Done()
	for {
		select {
		case req := <-p.mailbox:
			req.done <- c.fetch(req)
		case <-c.stop:
			return
		}
	}
}

// fetch performs one peer-fill HTTP round trip under the jittered timeout.
func (c *Cluster) fetch(req *fillReq) fillResult {
	ctx, cancel := context.WithTimeout(req.ctx, c.jitteredTimeout())
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, req.url, nil)
	if err != nil {
		return fillResult{err: err}
	}
	// Propagate the requester's trace (W3C traceparent) so the owner's
	// peer-plan handler joins the same trace.
	if sp := obs.SpanFromContext(req.ctx); sp != nil {
		httpReq.Header.Set("traceparent", sp.Traceparent())
	}
	resp, err := c.cfg.Client.Do(httpReq)
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return fillResult{err: err}
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fillResult{err: fmt.Errorf("cluster: peer answered %s", resp.Status)}
	}
	var pr wire.PeerPlanResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&pr); err != nil {
		return fillResult{err: fmt.Errorf("cluster: decode peer response: %w", err)}
	}
	if !pr.Found {
		return fillResult{found: false}
	}
	plan, err := pr.Plan.Build()
	if err != nil {
		return fillResult{err: fmt.Errorf("cluster: invalid peer plan: %w", err)}
	}
	return fillResult{plan: plan, age: time.Duration(pr.AgeMS) * time.Millisecond, found: true}
}

// Start launches the background health prober (a no-op when probing is
// disabled by a negative ProbeInterval).
func (c *Cluster) Start() {
	if c.cfg.ProbeInterval < 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(c.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				c.ProbeOnce(context.Background())
			case <-c.stop:
				return
			}
		}
	}()
}

// ProbeOnce probes every remote peer's /healthz once, ejecting peers after
// ProbeFailures consecutive failures and readmitting them on the first
// success. Exported so tests (and the prober) share one code path; it must
// not be called concurrently with itself.
func (c *Cluster) ProbeOnce(ctx context.Context) {
	for _, addr := range c.ring.Peers() {
		p := c.peers[addr]
		if p == nil {
			continue
		}
		if c.probe(ctx, addr) {
			p.probeFails = 0
			if p.down.CompareAndSwap(true, false) {
				c.readmissions.Add(1)
				c.cfg.Logger.Info(ctx, "peer readmitted to ring", "peer", addr)
			}
			continue
		}
		p.probeFails++
		if p.probeFails >= c.cfg.ProbeFailures && p.down.CompareAndSwap(false, true) {
			c.ejections.Add(1)
			c.cfg.Logger.WarnClass(ctx, "peer-eject", "peer ejected from ring",
				"peer", addr, "consecutive_failures", p.probeFails)
		}
	}
}

// probe performs one /healthz round trip.
func (c *Cluster) probe(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Close stops the prober and the peer workers. Pending fills are abandoned
// (their callers' Fill returns ok=false via the stop channel).
func (c *Cluster) Close() {
	c.stopped.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Stats returns a snapshot of the cluster counters.
func (c *Cluster) Stats() Stats {
	alive := 1 // self
	for _, p := range c.peers {
		if !p.down.Load() {
			alive++
		}
	}
	return Stats{
		Peers:          len(c.peers) + 1,
		Alive:          alive,
		Fills:          c.fills.Load(),
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Errors:         c.errs.Load(),
		Timeouts:       c.timeouts.Load(),
		Dropped:        c.dropped.Load(),
		BreakerSkipped: c.breakerSkipped.Load(),
		Ejections:      c.ejections.Load(),
		Readmissions:   c.readmissions.Load(),
	}
}
