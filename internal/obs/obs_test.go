package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a clock that advances a fixed step per call, so
// span durations are deterministic.
func fixedClock(step time.Duration) func() time.Time {
	t0 := time.Unix(1700000000, 0).UTC()
	n := 0
	return func() time.Time {
		t := t0.Add(time.Duration(n) * step)
		n++
		return t
	}
}

func newTestTracer(t *testing.T, seed uint64) *Tracer {
	t.Helper()
	tr := NewTracer(Config{Seed: seed, Capacity: 8, Now: fixedClock(time.Millisecond)})
	tr.Enable()
	t.Cleanup(tr.Disable)
	return tr
}

// Span identity must be a pure function of the seed: two tracers with
// the same seed mint byte-identical trace and span IDs regardless of
// wall clock.
func TestDeterministicIDs(t *testing.T) {
	run := func() (string, string, string) {
		tr := newTestTracer(t, 42)
		ctx, root := StartRoot(context.Background(), tr, "req", "")
		_, child := StartSpan(ctx, "child")
		child.End()
		root.End()
		return root.TraceID(), root.SpanID(), child.SpanID()
	}
	t1, s1, c1 := run()
	t2, s2, c2 := run()
	if t1 != t2 || s1 != s2 || c1 != c2 {
		t.Fatalf("IDs not deterministic: (%s,%s,%s) vs (%s,%s,%s)", t1, s1, c1, t2, s2, c2)
	}
	if len(t1) != 32 || len(s1) != 16 {
		t.Fatalf("bad ID lengths: trace %q span %q", t1, s1)
	}
	if t1[:16] == t1[16:] {
		t.Fatalf("trace ID halves identical — stream not advancing: %s", t1)
	}
}

func TestDisabledPathIsNoop(t *testing.T) {
	if activeTracers.Load() != 0 {
		t.Skip("another enabled tracer in process")
	}
	ctx, sp := StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("expected nil span with no enabled tracer")
	}
	// All methods must be nil-safe.
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.SetBool("b", true)
	sp.SetError(context.Canceled)
	sp.End()
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("context should carry no span")
	}
	tid, spans := SnapshotTrace(ctx)
	if tid != "" || spans != nil {
		t.Fatal("snapshot of untraced context should be empty")
	}
}

func TestTraceSealsIntoStoreWithNesting(t *testing.T) {
	tr := newTestTracer(t, 7)
	ctx, root := StartRoot(context.Background(), tr, "/v1/plan", "")
	ctx2, a := StartSpan(ctx, "cache.lookup")
	a.SetAttr("outcome", "miss")
	_, b := StartSpan(ctx2, "solve")
	b.SetInt("iterations", 31)
	b.End()
	a.End()

	// Before the root ends, SnapshotTrace sees the finished children.
	tid, spans := SnapshotTrace(ctx)
	if tid != root.TraceID() {
		t.Fatalf("snapshot trace ID %s want %s", tid, root.TraceID())
	}
	if len(spans) != 2 {
		t.Fatalf("snapshot spans = %d, want 2", len(spans))
	}
	if tr.Store().Len() != 0 {
		t.Fatal("trace sealed before root ended")
	}
	root.End()
	if tr.Store().Len() != 1 {
		t.Fatalf("store len = %d after root end", tr.Store().Len())
	}
	det, ok := tr.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("trace not found by ID")
	}
	if len(det.Spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(det.Spans))
	}
	// solve's parent must be cache.lookup, cache.lookup's parent the root.
	byName := map[string]SpanSnapshot{}
	for _, s := range det.Spans {
		byName[s.Name] = s
	}
	if byName["solve"].ParentID != byName["cache.lookup"].SpanID {
		t.Fatal("solve not parented under cache.lookup")
	}
	if byName["cache.lookup"].ParentID != root.SpanID() {
		t.Fatal("cache.lookup not parented under root")
	}
	if byName["solve"].Attrs[0].Value != "31" {
		t.Fatalf("attr not recorded: %+v", byName["solve"].Attrs)
	}
}

func TestRingStoreBounded(t *testing.T) {
	tr := newTestTracer(t, 9)
	for i := 0; i < 20; i++ {
		_, root := StartRoot(context.Background(), tr, "req", "")
		root.End()
	}
	if got := tr.Store().Len(); got != 8 {
		t.Fatalf("ring len = %d, want capacity 8", got)
	}
	if got := len(tr.Store().List()); got != 8 {
		t.Fatalf("list len = %d, want 8", got)
	}
}

func TestTraceparentRoundTripAndStitch(t *testing.T) {
	tr := newTestTracer(t, 11)
	ctx, root := StartRoot(context.Background(), tr, "client", "")
	_ = ctx
	hdr := root.Traceparent()
	tid, pid, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("own header did not parse: %q", hdr)
	}
	if hexString(tid[:]) != root.TraceID() || hexString(pid[:]) != root.SpanID() {
		t.Fatal("round-trip mismatch")
	}
	// A second tracer (the peer) adopts the trace ID.
	tr2 := newTestTracer(t, 99)
	_, peerRoot := StartRoot(context.Background(), tr2, "peer", hdr)
	if peerRoot.TraceID() != root.TraceID() {
		t.Fatalf("peer trace %s did not adopt %s", peerRoot.TraceID(), root.TraceID())
	}
	peerRoot.End()
	det, ok := tr2.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("stitched trace not in peer store")
	}
	if det.Spans[0].ParentID != root.SpanID() {
		t.Fatal("peer root must carry the remote parent span ID")
	}

	for _, bad := range []string{
		"", "00-abc", strings.Repeat("0", 55),
		"00-00000000000000000000000000000000-0000000000000000-01",
		"zz-" + hdr[3:],
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("malformed header accepted: %q", bad)
		}
	}
}

func TestSlowestOrdering(t *testing.T) {
	// Each trace takes one clock step (1ms) except the ones we stretch
	// with extra child spans — more clock calls, longer root duration.
	tr := NewTracer(Config{Seed: 5, Capacity: 8, Now: fixedClock(time.Millisecond)})
	tr.Enable()
	defer tr.Disable()
	for i := 0; i < 4; i++ {
		ctx, root := StartRoot(context.Background(), tr, "req", "")
		for j := 0; j < i; j++ {
			_, sp := StartSpan(ctx, "pad")
			sp.End()
		}
		root.End()
	}
	slow := tr.Store().Slowest(2)
	if len(slow) != 2 {
		t.Fatalf("slowest(2) returned %d", len(slow))
	}
	if slow[0].DurationUS < slow[1].DurationUS {
		t.Fatalf("not sorted by duration: %v", slow)
	}
	if slow[0].Spans != 4 {
		t.Fatalf("slowest trace should be the most padded one, got %d spans", slow[0].Spans)
	}
}

func TestDebugHandler(t *testing.T) {
	tr := newTestTracer(t, 13)
	ctx, root := StartRoot(context.Background(), tr, "/v1/plan", "")
	_, sp := StartSpan(ctx, "solve")
	sp.End()
	root.End()

	h := tr.Handler("/debug/traces")

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var list traceListBody
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list decode: %v\n%s", err, rec.Body.String())
	}
	if list.Count != 1 || len(list.Traces) != 1 || list.Traces[0].Spans != 2 {
		t.Fatalf("unexpected list: %+v", list)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+root.TraceID(), nil))
	var det TraceDetail
	if err := json.Unmarshal(rec.Body.Bytes(), &det); err != nil {
		t.Fatalf("detail decode: %v", err)
	}
	if len(det.Spans) != 2 || det.Root != "/v1/plan" {
		t.Fatalf("unexpected detail: %+v", det)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/ffffffffffffffffffffffffffffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("missing trace: code %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/traces", nil))
	if rec.Code != 405 {
		t.Fatalf("POST: code %d", rec.Code)
	}
}

func TestTailSubscribe(t *testing.T) {
	tr := newTestTracer(t, 17)
	ch, cancel := tr.Store().Subscribe()
	defer cancel()
	_, root := StartRoot(context.Background(), tr, "req", "")
	root.End()
	select {
	case sum := <-ch:
		if sum.TraceID != root.TraceID() {
			t.Fatalf("tail delivered %s want %s", sum.TraceID, root.TraceID())
		}
	default:
		t.Fatal("no tail notification")
	}
}

// failingStream is an SSE client that has gone away: headers and flushes
// succeed, every body write fails. The first flush (the stream is open and
// subscribed) closes opened.
type failingStream struct {
	header http.Header
	opened chan struct{}
	once   sync.Once
}

func (f *failingStream) Header() http.Header       { return f.header }
func (f *failingStream) WriteHeader(int)           {}
func (f *failingStream) Write([]byte) (int, error) { return 0, errors.New("client gone") }
func (f *failingStream) Flush()                    { f.once.Do(func() { close(f.opened) }) }

// TestTailStopsOnWriteError: /debug/traces/tail returns on its first failed
// write even though the request context never ends.
func TestTailStopsOnWriteError(t *testing.T) {
	tr := newTestTracer(t, 23)
	w := &failingStream{header: http.Header{}, opened: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.Handler("/debug/traces").ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces/tail", nil))
	}()
	<-w.opened
	_, root := StartRoot(context.Background(), tr, "req", "")
	root.End()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tail kept streaming after a failed write")
	}
}

func TestLoggerFormatsAndCorrelation(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil)))
	tr := newTestTracer(t, 19)
	ctx, root := StartRoot(context.Background(), tr, "req", "")
	l.InfoContext(ctx, "hello", "k", 7, "s", "v v")
	l.DebugContext(ctx, "dropped")
	root.End()

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["level"] != "INFO" {
		t.Fatalf("bad line: %v", rec)
	}
	if rec["trace_id"] != root.TraceID() || rec["span_id"] != root.SpanID() {
		t.Fatalf("trace correlation missing: %v", rec)
	}
	if rec["k"] != float64(7) || rec["s"] != "v v" {
		t.Fatalf("kv missing: %v", rec)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("debug line should be dropped below level:\n%s", buf.String())
	}

	buf.Reset()
	lt := slog.New(NewLogHandler(slog.NewTextHandler(&buf, nil)))
	lt.Warn("spaced message", "key", "has space")
	line := buf.String()
	if !strings.Contains(line, `level=WARN msg="spaced message"`) || !strings.Contains(line, `key="has space"`) {
		t.Fatalf("bad text line: %q", line)
	}
	if strings.Contains(line, "trace_id") {
		t.Fatalf("untraced line carries a trace ID: %q", line)
	}

	// Logging off: the handler reports nothing enabled, and logging through
	// it is a no-op.
	off := slog.New(NewLogHandler(slog.DiscardHandler))
	if off.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("discarding logger reports a level enabled")
	}
	off.Info("ignored")
	off.Error("ignored", "class", "c")
}

// classRecord is an error record of class logged at t.
func classRecord(t time.Time, class string) slog.Record {
	r := slog.NewRecord(t, slog.LevelError, "boom", 0)
	r.AddAttrs(slog.String("class", class))
	return r
}

func TestLoggerRateLimit(t *testing.T) {
	var buf bytes.Buffer
	h := NewLogHandler(slog.NewJSONHandler(&buf, nil))
	t0 := time.Unix(1700000000, 0)
	for i := 0; i < 50; i++ {
		if err := h.Handle(context.Background(), classRecord(t0, "http")); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Count(buf.String(), "\n"); got != classBurst {
		t.Fatalf("emitted %d lines, want burst %d", got, classBurst)
	}
	// Another class has its own window.
	buf.Reset()
	h.Handle(context.Background(), classRecord(t0, "other"))
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("a second class was limited by the first: %q", buf.String())
	}
	// Roll the window: the next line must carry the suppressed count, also
	// when the class comes from Logger.With.
	buf.Reset()
	h.Handle(context.Background(), classRecord(t0.Add(classWindow-time.Nanosecond), "http"))
	if buf.Len() != 0 {
		t.Fatalf("line emitted before the window rolled: %s", buf.String())
	}
	with := h.WithAttrs([]slog.Attr{slog.String("class", "http")})
	r := slog.NewRecord(t0.Add(2*classWindow), slog.LevelError, "boom", 0)
	if err := with.Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"suppressed":41`) {
		t.Fatalf("suppressed count missing: %s", buf.String())
	}
}

// TestErrorLogLines: a line an http.Server writes to its ErrorLog, built by
// slog.NewLogLogger over a class logger, lands at warn under the class.
func TestErrorLogLines(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(NewLogHandler(slog.NewTextHandler(&buf, nil)))
	errorLog := slog.NewLogLogger(l.With("class", "http").Handler(), slog.LevelWarn)
	errorLog.Print("http: TLS handshake error\n")
	line := buf.String()
	if !strings.Contains(line, `level=WARN msg="http: TLS handshake error" class=http`) {
		t.Fatalf("error log output: %q", line)
	}
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("want one line: %q", line)
	}
}
