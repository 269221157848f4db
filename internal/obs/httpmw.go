package obs

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"
)

// HTTPMetrics bundles the registry series the HTTP middleware feeds.
type HTTPMetrics struct {
	requests *Counter
	latency  *Histogram
	inFlight *Gauge
}

// NewHTTPMetrics registers the standard HTTP server series on r.
func NewHTTPMetrics(r *PromRegistry) *HTTPMetrics {
	return &HTTPMetrics{
		requests: r.NewCounter("vc2m_http_requests_total",
			"HTTP requests served, by normalized route, method and status code.",
			"route", "method", "code"),
		latency: r.NewHistogram("vc2m_http_request_seconds",
			"HTTP request latency in seconds, by normalized route.",
			nil, "route"),
		inFlight: r.NewGauge("vc2m_http_in_flight_requests",
			"HTTP requests currently being served."),
	}
}

// RequestIDHeader is the header the middleware reads and echoes.
const RequestIDHeader = "X-Request-Id"

type requestIDKey struct{}

var requestIDCounter atomic.Uint64

// ContextWithRequestID returns a context carrying the request ID.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFromContext returns the request ID minted or accepted by the
// middleware ("" when not inside a request).
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Middleware wraps next with the server's standard observability chain:
// request-ID minting/propagation (inbound X-Request-Id up to 128 bytes is
// honored, otherwise one is minted), panic recovery (500 + logged stack;
// the serving goroutine survives), an access log line, and per-endpoint
// latency/in-flight metrics. route normalizes the URL path to a bounded
// label set (e.g. "/v1/runs/{id}"); nil logger and nil metrics are both
// fine — the chain still recovers panics and assigns IDs.
func Middleware(next http.Handler, logger *Logger, m *HTTPMetrics, route func(*http.Request) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get(RequestIDHeader)
		if reqID == "" || len(reqID) > 128 {
			reqID = fmt.Sprintf("req-%06d", requestIDCounter.Add(1))
		}
		w.Header().Set(RequestIDHeader, reqID)
		ctx := ContextWithRequestID(r.Context(), reqID)
		// W3C trace-context adoption: a valid inbound traceparent joins the
		// caller's trace; a malformed one is ignored per spec — never an
		// error — and the handler starts without a trace context.
		if tc, ok := ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
			ctx = ContextWithTraceContext(ctx, tc)
		}
		r = r.WithContext(ctx)

		routeLabel := r.URL.Path
		if route != nil {
			routeLabel = route(r)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now() //vc2m:wallclock request latency is wall time by design
		if m != nil {
			m.inFlight.Add(1)
		}
		defer func() {
			elapsed := time.Since(start) //vc2m:wallclock request latency is wall time by design
			if m != nil {
				m.inFlight.Add(-1)
			}
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec) // net/http's own abort protocol; let it through
				}
				logger.Error("panic serving request",
					slog.String("req", reqID),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())),
				)
				if !sw.wrote {
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				}
				if m != nil {
					m.requests.Inc(routeLabel, r.Method, strconv.Itoa(sw.Status()))
					m.latency.Observe(elapsed.Seconds(), routeLabel)
				}
				return
			}
			if m != nil {
				m.requests.Inc(routeLabel, r.Method, strconv.Itoa(sw.Status()))
				m.latency.Observe(elapsed.Seconds(), routeLabel)
			}
			logger.Info("request",
				slog.String("req", reqID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", routeLabel),
				slog.Int("code", sw.Status()),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("elapsed", elapsed),
			)
		}()
		next.ServeHTTP(sw, r)
	})
}

// statusWriter captures the response status and byte count while
// preserving the http.Flusher capability of the underlying writer, which
// the SSE event streams depend on.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it supports flushing, so
// chunked streaming keeps working through the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the response code sent (200 if the handler wrote a body
// without an explicit WriteHeader, 0 if nothing was written).
func (w *statusWriter) Status() int {
	if !w.wrote {
		return 0
	}
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}
