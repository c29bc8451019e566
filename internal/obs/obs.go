// Package obs is the serving stack's zero-dependency observability layer:
// context-propagated request tracing with deterministic span identity,
// a bounded in-memory trace store with an HTTP debug surface, and a
// log/slog handler that correlates log lines with traces (see log.go).
//
// The design constraints mirror internal/faultinject: the layer is
// compiled into every request path but a process with no enabled tracer
// pays exactly one atomic load per span site — StartSpan consults a
// package-level counter of enabled tracers before touching the context,
// and every *Span method is a nil-receiver no-op so call sites never
// branch on "is tracing on".
//
// Span identity is deterministic under test: trace and span IDs are drawn
// from a seeded splitmix64 stream, never from the wall clock. Durations
// use the tracer's injectable clock, so a test with a fixed clock gets
// byte-identical trace JSON run over run.
package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// activeTracers counts enabled tracers in the process. StartSpan's
// disabled fast path is a single load of this counter — the same
// discipline as faultinject's disarmed Fire.
var activeTracers atomic.Int64

type ctxKey int

const ctxKeySpan ctxKey = 0

// Config configures a Tracer.
type Config struct {
	// Seed seeds the splitmix64 ID stream. Zero means 1 (the stream must
	// not be the all-zeros fixed point).
	Seed uint64
	// Capacity bounds the finished-trace ring store (default 256).
	Capacity int
	// Now is the clock used for span durations (default time.Now). Span
	// identity never consults it.
	Now func() time.Time
}

// Tracer mints spans and owns the ring store finished traces land in.
// A Tracer starts disabled; Enable registers it with the package-level
// fast path.
type Tracer struct {
	enabled atomic.Bool
	idState atomic.Uint64
	now     func() time.Time
	store   *Store
}

// NewTracer builds a disabled tracer; call Enable to arm it.
func NewTracer(cfg Config) *Tracer {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 256
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	t := &Tracer{now: now, store: newStore(capacity)}
	t.idState.Store(seed)
	return t
}

// Enable arms the tracer and registers it with the package fast path.
func (t *Tracer) Enable() {
	if t != nil && t.enabled.CompareAndSwap(false, true) {
		activeTracers.Add(1)
	}
}

// Disable disarms the tracer. In-flight spans still record into their
// trace, but new StartSpan calls become no-ops.
func (t *Tracer) Disable() {
	if t != nil && t.enabled.CompareAndSwap(true, false) {
		activeTracers.Add(-1)
	}
}

// Enabled reports whether the tracer is armed. Safe on nil.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Store exposes the tracer's finished-trace ring.
func (t *Tracer) Store() *Store { return t.store }

// nextID draws the next deterministic 64-bit ID from the seeded stream
// (splitmix64: lock-free, each Add claims a distinct stream position).
func (t *Tracer) nextID() uint64 {
	x := t.idState.Add(0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Attr is one span attribute. Values are strings so trace JSON and the
// wire timing breakdown stay byte-deterministic without reflection.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. The zero value is never
// used; a nil *Span (tracing disabled) is a valid receiver for every
// method.
type Span struct {
	tracer  *Tracer
	trace   *traceRec
	traceID [16]byte
	spanID  [8]byte
	parent  [8]byte
	name    string
	start   time.Time
	root    bool

	mu    sync.Mutex
	attrs []Attr
	errs  string
	ended bool
}

// traceRec accumulates the finished spans of one trace. The root span
// owns it; when the root ends the record is published to the store
// (late-finishing spans still append under the record's lock and are
// visible to later reads).
type traceRec struct {
	traceID [16]byte
	start   time.Time

	mu       sync.Mutex
	finished []SpanSnapshot
	rootDur  time.Duration
	rootName string
	sealed   bool
}

// SpanSnapshot is the immutable record of a finished span.
type SpanSnapshot struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartUS is the span start relative to the trace root start, in
	// microseconds; DurationUS the span's wall duration.
	StartUS    int64  `json:"start_us"`
	DurationUS int64  `json:"duration_us"`
	Attrs      []Attr `json:"attrs,omitempty"`
	Err        string `json:"err,omitempty"`
}

// StartSpan starts a child span of the context's current span. When no
// tracer is enabled in the process this is one atomic load; when the
// context carries no tracer or no current trace it returns (ctx, nil).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if activeTracers.Load() == 0 {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxKeySpan).(*Span)
	if parent == nil {
		return ctx, nil
	}
	t := parent.tracer
	if !t.Enabled() {
		return ctx, nil
	}
	sp := &Span{
		tracer:  t,
		trace:   parent.trace,
		traceID: parent.traceID,
		parent:  parent.spanID,
		name:    name,
		start:   t.now(),
	}
	binary.BigEndian.PutUint64(sp.spanID[:], t.nextID())
	return context.WithValue(ctx, ctxKeySpan, sp), sp
}

// StartRoot starts the root span of a new trace on t. When traceparent
// is a valid W3C header the trace ID (and remote parent span ID) are
// adopted from it so the local trace stitches into the caller's; an
// empty or malformed header starts a fresh trace. Returns (ctx, nil)
// when t is nil or disabled.
func StartRoot(ctx context.Context, t *Tracer, name, traceparent string) (context.Context, *Span) {
	if !t.Enabled() {
		return ctx, nil
	}
	sp := &Span{tracer: t, name: name, start: t.now(), root: true}
	if tid, pid, ok := ParseTraceparent(traceparent); ok {
		sp.traceID = tid
		sp.parent = pid
	} else {
		binary.BigEndian.PutUint64(sp.traceID[:8], t.nextID())
		binary.BigEndian.PutUint64(sp.traceID[8:], t.nextID())
	}
	binary.BigEndian.PutUint64(sp.spanID[:], t.nextID())
	sp.trace = &traceRec{traceID: sp.traceID, start: sp.start, rootName: name}
	return context.WithValue(ctx, ctxKeySpan, sp), sp
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if activeTracers.Load() == 0 {
		return nil
	}
	sp, _ := ctx.Value(ctxKeySpan).(*Span)
	return sp
}

// SetAttr records a string attribute. No-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt records an integer attribute. No-op on nil.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// SetBool records a boolean attribute. No-op on nil.
func (s *Span) SetBool(key string, value bool) {
	if s == nil {
		return
	}
	if value {
		s.SetAttr(key, "true")
	} else {
		s.SetAttr(key, "false")
	}
}

// SetError records an error on the span. No-op on nil or nil err.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errs = err.Error()
	s.mu.Unlock()
}

// TraceID returns the span's 32-hex-digit trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return hexString(s.traceID[:])
}

// SpanID returns the span's 16-hex-digit span ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return hexString(s.spanID[:])
}

// Traceparent renders the span as a W3C traceparent header value
// ("" on nil) for propagation to a peer.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.traceID, s.spanID)
}

// End finishes the span, appending its snapshot to the trace. Ending the
// root span seals the trace into the tracer's ring store. Idempotent;
// no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	snap := SpanSnapshot{
		SpanID:     hexString(s.spanID[:]),
		Name:       s.name,
		StartUS:    s.start.Sub(s.trace.start).Microseconds(),
		DurationUS: s.tracer.now().Sub(s.start).Microseconds(),
		Attrs:      append([]Attr(nil), s.attrs...),
		Err:        s.errs,
	}
	s.mu.Unlock()
	if s.parent != ([8]byte{}) {
		snap.ParentID = hexString(s.parent[:])
	}
	s.trace.mu.Lock()
	s.trace.finished = append(s.trace.finished, snap)
	if s.root && !s.trace.sealed {
		s.trace.sealed = true
		s.trace.rootDur = time.Duration(snap.DurationUS) * time.Microsecond
		s.trace.mu.Unlock()
		s.tracer.store.add(s.trace)
		return
	}
	s.trace.mu.Unlock()
}

// SnapshotTrace returns the finished spans of the context's current
// trace so far (nil when tracing is off). The root span is typically
// still open when this is called from a response builder, so it is not
// included.
func SnapshotTrace(ctx context.Context) (traceID string, spans []SpanSnapshot) {
	sp := SpanFromContext(ctx)
	if sp == nil {
		return "", nil
	}
	sp.trace.mu.Lock()
	spans = append([]SpanSnapshot(nil), sp.trace.finished...)
	sp.trace.mu.Unlock()
	return hexString(sp.traceID[:]), spans
}

func hexString(b []byte) string { return hex.EncodeToString(b) }
