// Package obs is the reproduction's stdlib-only observability layer:
// request IDs carried through contexts, lightweight span hooks that
// record stage latencies into named histograms, and structured request
// logging via log/slog. The paper's management case studies (the CSCS
// procurement redesign, LANL's 15 min–1 h demand-response window) hinge
// on knowing where time and peak power go; this package gives the
// billing daemon, the router and the CLIs that visibility without
// pulling in a metrics client library: each daemon declares its
// families once on a Metrics set, which checks their names and renders
// the /metrics page in Prometheus text exposition format.
//
// Span hooks are designed to cost nothing when unused: Span consults
// the context for a Registry and returns a no-op closure when none is
// attached, so library code (the billing engine's streaming loop, the
// contract engine) can be instrumented unconditionally while batch
// callers pay only a context lookup.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

type ctxKey int

const (
	reqIDKey ctxKey = iota
	spansKey
)

// reqIDFallback numbers request IDs when the system's entropy source is
// unavailable (it practically never is).
var reqIDFallback atomic.Uint64

// NewRequestID returns a fresh 16-hex-digit request identifier.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", reqIDFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID attaches a request ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey, id)
}

// RequestIDFrom returns the context's request ID, or "" when none is
// attached.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey).(string)
	return id
}

// WithSpans attaches a span registry to the context: Span calls below
// this context record their durations into it.
func WithSpans(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, spansKey, r)
}

// SpansFrom returns the context's span registry, or nil when tracing is
// not enabled for this context.
func SpansFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(spansKey).(*Registry)
	return r
}

// Span opens a named span and returns its end function. When the
// context carries no registry the returned closure is a no-op, so
// instrumented code costs one context lookup on untraced paths.
//
//	end := obs.Span(ctx, "compile")
//	defer end()
func Span(ctx context.Context, name string) func() {
	r := SpansFrom(ctx)
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.Observe(name, time.Since(start).Seconds()) }
}

// NewLogger builds a slog.Logger writing to w. format is "json" or
// "text" (anything else selects text).
func NewLogger(w io.Writer, format string, level slog.Level) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if format == "json" {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}
