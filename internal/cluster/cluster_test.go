package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/graph"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// fakePeer is a scripted remote peer: it answers /v1/peer/plan/* according
// to mode and /healthz according to the healthy flag.
type fakePeer struct {
	srv     *httptest.Server
	mode    atomic.Int32 // 0 = hit, 1 = miss, 2 = 500, 3 = block on gate
	healthy atomic.Bool
	gate    chan struct{}
	entered chan struct{} // signalled once per blocked request
	fills   atomic.Uint64
}

const (
	modeHit = iota
	modeMiss
	modeErr
	modeBlock
)

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	fp := &fakePeer{gate: make(chan struct{}), entered: make(chan struct{}, 64)}
	fp.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !fp.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/peer/plan/{fp}", func(w http.ResponseWriter, r *http.Request) {
		fp.fills.Add(1)
		switch fp.mode.Load() {
		case modeMiss:
			json.NewEncoder(w).Encode(wire.PeerPlanResponse{Found: false})
		case modeErr:
			w.WriteHeader(http.StatusInternalServerError)
		case modeBlock:
			fp.entered <- struct{}{}
			select {
			case <-fp.gate:
			case <-r.Context().Done():
			}
			json.NewEncoder(w).Encode(wire.PeerPlanResponse{Found: false})
		default:
			p := scenario.NewPlan("ISP")
			p.RepairedNodes[graph.NodeID(3)] = true
			p.SatisfiedDemand, p.TotalDemand = 4, 5
			cp := wire.FromCachedPlan(p)
			json.NewEncoder(w).Encode(wire.PeerPlanResponse{Found: true, Plan: &cp, AgeMS: 42})
		}
	})
	fp.srv = httptest.NewServer(mux)
	t.Cleanup(fp.srv.Close)
	return fp
}

// newTestCluster builds a 2-node cluster: a fake self address plus the fake
// peer, with probing disabled (tests drive ProbeOnce directly).
func newTestCluster(t *testing.T, peerURL string, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{"http://self.invalid:1", peerURL},
		ProbeInterval: -1,
		FillTimeout:   2 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// peerKey finds a cache key whose fingerprint the ring assigns to addr.
func peerKey(t *testing.T, c *Cluster, addr string) plancache.Key {
	t.Helper()
	for i := 0; i < 4096; i++ {
		k := plancache.Key{Fingerprint: testFP(i), Algorithm: "ISP"}
		if owner, ok := c.Owner(k.Fingerprint); ok && owner == addr {
			return k
		}
	}
	t.Fatal("no fingerprint mapped to peer (ring broken?)")
	return plancache.Key{}
}

func TestFillHit(t *testing.T) {
	fp := newFakePeer(t)
	c := newTestCluster(t, fp.srv.URL, nil)
	key := peerKey(t, c, fp.srv.URL)

	plan, age, ok := c.Fill(context.Background(), key)
	if !ok {
		t.Fatal("Fill: ok=false, want hit")
	}
	if !plan.RepairedNodes[graph.NodeID(3)] || plan.SatisfiedDemand != 4 {
		t.Fatalf("Fill returned wrong plan: %+v", plan)
	}
	if age != 42*time.Millisecond {
		t.Fatalf("age = %v, want 42ms", age)
	}
	st := c.Stats()
	if st.Fills != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 fill / 1 hit", st)
	}
}

func TestFillMissAndSelfOwned(t *testing.T) {
	fp := newFakePeer(t)
	fp.mode.Store(modeMiss)
	c := newTestCluster(t, fp.srv.URL, nil)

	if _, _, ok := c.Fill(context.Background(), peerKey(t, c, fp.srv.URL)); ok {
		t.Fatal("Fill: ok=true on a peer miss")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}

	// A self-owned key never dispatches a fill.
	selfKey := peerKey(t, c, c.Self())
	if _, _, ok := c.Fill(context.Background(), selfKey); ok {
		t.Fatal("Fill: ok=true for self-owned key")
	}
	if st := c.Stats(); st.Fills != 1 {
		t.Fatalf("self-owned key dispatched a fill: %+v", st)
	}
}

func TestFillErrorFeedsBreaker(t *testing.T) {
	fp := newFakePeer(t)
	fp.mode.Store(modeErr)
	c := newTestCluster(t, fp.srv.URL, func(cfg *Config) {
		cfg.Breaker = degrade.BreakerConfig{ConsecutiveFailures: 3, Cooldown: time.Hour}
	})
	key := peerKey(t, c, fp.srv.URL)

	for i := 0; i < 3; i++ {
		if _, _, ok := c.Fill(context.Background(), key); ok {
			t.Fatalf("Fill %d: ok=true from a 500", i)
		}
	}
	st := c.Stats()
	if st.Errors != 3 {
		t.Fatalf("stats = %+v, want 3 errors", st)
	}
	// Breaker tripped after 3 consecutive failures: the next fill is
	// refused before touching the mailbox.
	if _, _, ok := c.Fill(context.Background(), key); ok {
		t.Fatal("Fill: ok=true with open breaker")
	}
	st = c.Stats()
	if st.BreakerSkipped != 1 || st.Fills != 3 {
		t.Fatalf("stats = %+v, want breakerSkipped=1 fills=3", st)
	}
	if fp.fills.Load() != 3 {
		t.Fatalf("peer saw %d fills, want 3 (breaker must gate the 4th)", fp.fills.Load())
	}
}

func TestFillMailboxFullSheds(t *testing.T) {
	fp := newFakePeer(t)
	fp.mode.Store(modeBlock)
	c := newTestCluster(t, fp.srv.URL, func(cfg *Config) {
		cfg.MailboxSize = 1
		cfg.WorkersPerPeer = 1
	})
	key := peerKey(t, c, fp.srv.URL)
	p := c.peers[fp.srv.URL]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Fill 1 holds the peer's single token (blocked in the handler).
	go c.Fill(ctx, key)
	<-fp.entered
	// Fill 2 waits for the token.
	go c.Fill(ctx, key)
	waitUntil(t, "second fill waiting", func() bool { return p.fills.Waiting() == 1 })
	// Fill 3 finds the waiting bound reached and is shed synchronously.
	start := time.Now()
	if _, _, ok := c.Fill(context.Background(), key); ok {
		t.Fatal("Fill: ok=true with full mailbox")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed fill took %v, want immediate", d)
	}
	if st := c.Stats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v, want dropped=1", st)
	}
	close(fp.gate) // release the blocked handler
	cancel()
}

// waitUntil polls cond until it holds or a few seconds pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// fillAsync runs Fill on its own goroutine and delivers its ok.
func fillAsync(c *Cluster, ctx context.Context, key plancache.Key) <-chan bool {
	done := make(chan bool, 1)
	go func() {
		_, _, ok := c.Fill(ctx, key)
		done <- ok
	}()
	return done
}

// TestFillCancelledWhileWaiting: a fill whose requester goes away while it
// waits for a peer token is neither dispatched nor dropped.
func TestFillCancelledWhileWaiting(t *testing.T) {
	fp := newFakePeer(t)
	fp.mode.Store(modeBlock)
	defer close(fp.gate)
	c := newTestCluster(t, fp.srv.URL, func(cfg *Config) {
		cfg.WorkersPerPeer = 1
	})
	key := peerKey(t, c, fp.srv.URL)
	p := c.peers[fp.srv.URL]

	blocked := fillAsync(c, context.Background(), key)
	<-fp.entered
	ctx, cancel := context.WithCancel(context.Background())
	waiting := fillAsync(c, ctx, key)
	waitUntil(t, "second fill waiting", func() bool { return p.fills.Waiting() == 1 })
	cancel()
	select {
	case ok := <-waiting:
		if ok {
			t.Fatal("cancelled fill: ok=true")
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled fill did not return")
	}
	if st := c.Stats(); st.Fills != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want fills=1 (the blocked one) dropped=0", st)
	}
	if p.fills.Waiting() != 0 || p.fills.InUse() != 1 {
		t.Fatalf("peer limiter: waiting %d, in use %d; want 0 and 1", p.fills.Waiting(), p.fills.InUse())
	}
	fp.gate <- struct{}{}
	if ok := <-blocked; ok {
		t.Fatal("blocked fill answered by a miss: ok=true")
	}
}

// TestCloseEndsBlockedFill: Close does not wait for a slow owner; the fill
// blocked in it returns ok=false at once.
func TestCloseEndsBlockedFill(t *testing.T) {
	fp := newFakePeer(t)
	fp.mode.Store(modeBlock)
	defer close(fp.gate)
	c := newTestCluster(t, fp.srv.URL, nil)
	key := peerKey(t, c, fp.srv.URL)

	blocked := fillAsync(c, context.Background(), key)
	<-fp.entered
	start := time.Now()
	c.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a fill blocked in the owner", d)
	}
	select {
	case ok := <-blocked:
		if ok {
			t.Fatal("fill ended by Close: ok=true")
		}
	case <-time.After(time.Second):
		t.Fatal("blocked fill did not return within a second of Close")
	}
}

func TestProbeEjectAndReadmit(t *testing.T) {
	fp := newFakePeer(t)
	c := newTestCluster(t, fp.srv.URL, func(cfg *Config) {
		cfg.ProbeFailures = 3
	})
	key := peerKey(t, c, fp.srv.URL)
	ctx := context.Background()

	if st := c.Stats(); st.Alive != 2 {
		t.Fatalf("alive = %d, want 2", st.Alive)
	}
	fp.healthy.Store(false)
	c.ProbeOnce(ctx)
	c.ProbeOnce(ctx)
	if st := c.Stats(); st.Alive != 2 || st.Ejections != 0 {
		t.Fatalf("ejected after 2 failures: %+v", st)
	}
	c.ProbeOnce(ctx)
	st := c.Stats()
	if st.Alive != 1 || st.Ejections != 1 {
		t.Fatalf("stats after 3rd failed probe = %+v, want alive=1 ejections=1", st)
	}
	// Ownership collapsed onto self; fills stop.
	if owner, ok := c.Owner(key.Fingerprint); !ok || owner != c.Self() {
		t.Fatalf("owner = %q ok=%v, want self after ejection", owner, ok)
	}
	if _, _, ok := c.Fill(ctx, key); ok {
		t.Fatal("Fill: ok=true against ejected peer")
	}
	if c.Stats().Fills != 0 {
		t.Fatal("fill dispatched to ejected peer")
	}

	// One healthy probe readmits.
	fp.healthy.Store(true)
	c.ProbeOnce(ctx)
	st = c.Stats()
	if st.Alive != 2 || st.Readmissions != 1 {
		t.Fatalf("stats after recovery probe = %+v, want alive=2 readmissions=1", st)
	}
	if owner, _ := c.Owner(key.Fingerprint); owner != fp.srv.URL {
		t.Fatalf("owner = %q, want readmitted peer", owner)
	}
}

func TestJitteredTimeoutDeterministic(t *testing.T) {
	mk := func(seed uint64) *Cluster {
		c, err := New(Config{
			Self:          "http://a:1",
			Peers:         []string{"http://a:1", "http://b:1"},
			ProbeInterval: -1,
			FillTimeout:   time.Second,
			TimeoutJitter: 0.2,
			Seed:          seed,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(c.Close)
		return c
	}
	c1, c2, c3 := mk(7), mk(7), mk(8)
	lo, hi := 800*time.Millisecond, time.Second
	varied := false
	var prev time.Duration
	for i := 0; i < 64; i++ {
		d1, d2, d3 := c1.jitteredTimeout(), c2.jitteredTimeout(), c3.jitteredTimeout()
		if d1 != d2 {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, d1, d2)
		}
		if d1 < lo || d1 > hi {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, d1, lo, hi)
		}
		if i > 0 && d1 != prev {
			varied = true
		}
		prev = d1
		_ = d3
	}
	if !varied {
		t.Fatal("jitter stream is constant")
	}
}

func TestFillURLGolden(t *testing.T) {
	var key plancache.Key
	key.Fingerprint[0], key.Fingerprint[31] = 0xab, 0x01
	key.Algorithm = "OPT/2"
	key.Options[0] = 0xff
	got := FillURL("http://n1:8080", key)
	want := "http://n1:8080/v1/peer/plan/" +
		"ab00000000000000000000000000000000000000000000000000000000000001" +
		"?algorithm=OPT%2F2&options=" +
		"ff00000000000000000000000000000000000000000000000000000000000000"
	if got != want {
		t.Fatalf("FillURL:\n got %s\nwant %s", got, want)
	}
}

func TestNewRejectsForeignSelf(t *testing.T) {
	if _, err := New(Config{Self: "http://zzz:1", Peers: []string{"http://a:1"}}); err == nil {
		t.Fatal("New accepted Self outside Peers")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted empty Self")
	}
}
