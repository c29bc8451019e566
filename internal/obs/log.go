package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// At most classBurst records of one class are emitted per classWindow.
const (
	classBurst  = 10
	classWindow = time.Second
)

// NewLogHandler wraps h, the serving stack's log encoder. A record logged
// under a context that carries a span gains the span's trace_id and
// span_id, which correlate the line with /debug/traces. A record carrying
// a "class" attribute (its own or one from Logger.With) is rate-limited: at
// most 10 records per class per second, and the first record after a
// window rolls carries a "suppressed" count of the records dropped in it.
// Use a class for lines that can fire per request.
func NewLogHandler(h slog.Handler) slog.Handler {
	return &logHandler{next: h, limits: &classLimits{windows: make(map[string]*classLimit)}}
}

type logHandler struct {
	next   slog.Handler
	class  string       // set by WithAttrs
	limits *classLimits // shared with every handler derived from this one
}

type classLimits struct {
	mu      sync.Mutex
	windows map[string]*classLimit
}

// classLimit is one class's current window.
type classLimit struct {
	start               time.Time
	emitted, suppressed int
}

// admit reports whether a record of class logged at t is emitted and, if
// it is the first after its window rolled, how many the window dropped.
func (l *classLimits) admit(class string, t time.Time) (suppressed int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.windows[class]
	if w == nil {
		w = &classLimit{start: t}
		l.windows[class] = w
	}
	if t.Sub(w.start) >= classWindow {
		suppressed = w.suppressed
		*w = classLimit{start: t}
	}
	if w.emitted >= classBurst {
		w.suppressed++
		return 0, false
	}
	w.emitted++
	return suppressed, true
}

func (h *logHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.next.Enabled(ctx, level)
}

func (h *logHandler) Handle(ctx context.Context, r slog.Record) error {
	class := h.class
	if class == "" {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "class" {
				class = a.Value.String()
				return false
			}
			return true
		})
	}
	if class != "" {
		suppressed, ok := h.limits.admit(class, r.Time)
		if !ok {
			return nil
		}
		if suppressed > 0 {
			r.AddAttrs(slog.Int("suppressed", suppressed))
		}
	}
	if sp := SpanFromContext(ctx); sp != nil {
		r.AddAttrs(slog.String("trace_id", sp.TraceID()), slog.String("span_id", sp.SpanID()))
	}
	return h.next.Handle(ctx, r)
}

func (h *logHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	c := *h
	for _, a := range attrs {
		if a.Key == "class" {
			c.class = a.Value.String()
		}
	}
	c.next = h.next.WithAttrs(attrs)
	return &c
}

func (h *logHandler) WithGroup(name string) slog.Handler {
	c := *h
	c.next = h.next.WithGroup(name)
	return &c
}
