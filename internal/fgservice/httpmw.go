package fgservice

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"freerideg/internal/metrics"
	"freerideg/internal/reqtrace"
)

// limiter bounds concurrently handled requests with the same
// semaphore-channel shape as the bench harness's worker pool. Unlike the
// pool, a full limiter rejects instead of queueing: a saturated
// prediction service should shed load with 503s, not build an unbounded
// backlog of goroutines.
type limiter struct {
	slots chan struct{}
}

// newLimiter builds a limiter admitting n concurrent requests (n < 1
// selects 4×GOMAXPROCS, enough to keep the prediction arithmetic and the
// occasional profiling simulation busy without unbounded fan-out).
func newLimiter(n int) *limiter {
	if n < 1 {
		n = 4 * runtime.GOMAXPROCS(0)
	}
	return &limiter{slots: make(chan struct{}, n)}
}

// tryAcquire claims a slot without blocking.
func (l *limiter) tryAcquire() bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (l *limiter) release() { <-l.slots }

// saturated reports whether every slot is taken right now — the signal
// /healthz uses to report degraded state while load is being shed.
func (l *limiter) saturated() bool { return len(l.slots) == cap(l.slots) }

// step is the endpoint-specific tail of the request pipeline: read what
// the endpoint needs from r, do the work under ctx, write the response
// to w, and report the status written. endpoint builds one from a typed
// function; the body-less GET endpoints implement it directly.
type step func(ctx context.Context, w http.ResponseWriter, r *http.Request) int

// endpoint adapts a typed endpoint function to a step: strict decode,
// call, then the error envelope (the function's error carries its status
// via withStatus; a returned ctx.Err() becomes 499/504) or the pooled
// encode. A result that completed is written even if ctx ended
// meanwhile — it is already paid for and still deliverable.
func endpoint[Req, Resp any](fn func(context.Context, *Req) (Resp, error)) step {
	return func(ctx context.Context, w http.ResponseWriter, r *http.Request) int {
		var req Req
		if err := decodeJSON(ctx, w, r, &req); err != nil {
			// A body read that failed because the request ended (client
			// gone or budget spent mid-upload) is that outcome, not a
			// malformed request.
			if cerr := ctx.Err(); cerr != nil {
				return writeError(w, errorStatus(cerr), cerr)
			}
			return writeError(w, http.StatusBadRequest, err)
		}
		resp, err := fn(ctx, &req)
		if err != nil {
			return writeError(w, errorStatus(err), err)
		}
		sp := reqtrace.Child(ctx, "encode")
		status := writeJSON(w, http.StatusOK, &resp)
		sp.End()
		return status
	}
}

// route is the one request pipeline every endpoint runs through, on the
// request's own goroutine and writing straight to w: request ID, trace
// root, method filter, the concurrency bound (nil lim admits everything
// — /healthz must answer even under load), the RequestTimeout context,
// the endpoint's step, and per-endpoint metrics.
//
// The step's context derives from the client's (so a disconnect cancels
// it) bounded by the server's RequestTimeout budget. Nothing answers on
// the step's behalf: every wait beneath it honours ctx and returns
// ctx.Err(), which endpoint renders as the JSON 499/504 envelope, and
// the limiter slot is released as the step returns. A computation that
// ignored ctx would answer late instead — bounded by the socket's
// WriteTimeout — not be answered for at the deadline.
func (s *Server) route(path string, lim *limiter, method string, do step) http.Handler {
	label := metrics.Label{Key: "path", Value: path}
	requests := metrics.GetCounter("fg_http_requests_total",
		"HTTP requests handled, by endpoint.", label)
	errs := metrics.GetCounter("fg_http_errors_total",
		"HTTP responses with status >= 400, by endpoint.", label)
	throttled := metrics.GetCounter("fg_http_throttled_total",
		"HTTP requests rejected with 503 by the concurrency bound, by endpoint.", label)
	canceled := metrics.GetCounter("fg_requests_canceled_total",
		"Requests abandoned because the client disconnected mid-handling, by endpoint.", label)
	deadlineExceeded := metrics.GetCounter("fg_requests_deadline_exceeded_total",
		"Requests that exhausted the per-request deadline budget and answered 504, by endpoint.", label)
	latency := metrics.GetHistogram("fg_http_request_seconds",
		"HTTP request handling latency in seconds, by endpoint.", nil, label)
	inflight := metrics.GetGauge("fg_http_inflight_requests",
		"Requests currently being handled, by endpoint.", label)

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every request — including ones rejected below — gets an ID,
		// echoed in the response header and readable by writeError for
		// the error envelope.
		id := reqtrace.NewID()
		start := time.Now()
		// Tracing rides only the bounded endpoints (the ones doing real
		// work) and only when sampling selects the request; the ID is
		// unconditional. The handler span opens before anything else
		// happens to the request and closes after the response is
		// written and counted, so it covers all the request cost the
		// server but the trace's own completion.
		ctx := r.Context()
		var tr *reqtrace.Trace
		var hspan reqtrace.Span
		if lim != nil && s.sampleTrace() {
			tr = reqtrace.New(id, path)
			ctx, hspan = reqtrace.StartSpan(reqtrace.WithTrace(ctx, tr), "handler")
		}
		requests.Inc()
		// Assigned into the header map directly (instead of via Set) so
		// the ID costs exactly two allocations: the string and this slice.
		w.Header()[reqtrace.Header] = []string{id}
		var status int
		switch {
		case r.Method != method:
			w.Header().Set("Allow", method)
			status = writeError(w, http.StatusMethodNotAllowed,
				&methodError{method: r.Method, want: method, path: path})
		case lim != nil && !lim.tryAcquire():
			throttled.Inc()
			status = writeError(w, http.StatusServiceUnavailable, errOverloaded)
		default:
			status = s.admitted(ctx, lim, inflight, w, r, do)
			latency.Observe(time.Since(start).Seconds())
		}
		if status >= 400 {
			errs.Inc()
		}
		switch status {
		case http.StatusGatewayTimeout:
			deadlineExceeded.Inc()
		case StatusClientClosedRequest:
			canceled.Inc()
		}
		if tr != nil {
			hspan.End()
			elapsed := time.Since(start)
			rec := tr.Finish(status, elapsed)
			s.traceRing.Add(rec)
			if thr := s.opts.SlowRequestThreshold; thr > 0 && elapsed >= thr {
				s.logSlowRequest(rec)
			}
		}
	})
}

// admitted runs one admitted request's step under the RequestTimeout
// budget, holding its limiter slot and in-flight count until the step
// returns (or panics). The test-only slowdown models handler work, which
// only the limited endpoints do (a delayed health probe would observe
// the world after the load it is meant to report has drained); like any
// other handler work it gives up the moment ctx ends.
func (s *Server) admitted(ctx context.Context, lim *limiter, inflight *metrics.Gauge, w http.ResponseWriter, r *http.Request, do step) int {
	inflight.Add(1)
	defer inflight.Add(-1)
	if lim != nil {
		defer lim.release()
	}
	ctx, cancel := context.WithTimeout(ctx, s.opts.RequestTimeout)
	defer cancel()
	if s.delay > 0 && lim != nil {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return writeError(w, errorStatus(ctx.Err()), ctx.Err())
		}
	}
	return do(ctx, w, r)
}

// sampleTrace decides whether the next bounded-endpoint request gets a
// span tree: a negative TraceSample disables tracing, 0 or 1 traces
// every request, n > 1 traces one in n (the counter is server-wide, so
// the sampled fraction holds across endpoints).
func (s *Server) sampleTrace() bool {
	n := s.opts.TraceSample
	switch {
	case n < 0:
		return false
	case n <= 1:
		return true
	}
	return s.traceSeq.Add(1)%uint64(n) == 1
}

// logSlowRequest emits the one-line over-threshold report: the request
// identity, outcome, total latency, and the span breakdown (name,
// duration, and note per span, parentage by nesting order).
func (s *Server) logSlowRequest(rec reqtrace.Record) {
	var b strings.Builder
	fmt.Fprintf(&b, "slow_request id=%s path=%s status=%d duration=%s spans=%d breakdown=\"",
		rec.ID, rec.Path, rec.Status, rec.DurationNs, len(rec.Spans))
	for i, sp := range rec.Spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.Name)
		b.WriteByte(':')
		b.WriteString(sp.DurationNs.String())
		if sp.Note != "" {
			b.WriteByte('[')
			b.WriteString(sp.Note)
			b.WriteByte(']')
		}
	}
	b.WriteString("\"\n")
	s.slowLogMu.Lock()
	_, _ = io.WriteString(s.slowLog, b.String())
	s.slowLogMu.Unlock()
}

type methodError struct {
	method, want, path string
}

func (e *methodError) Error() string {
	return "method " + e.method + " not allowed on " + e.path + " (want " + e.want + ")"
}

type constError string

func (e constError) Error() string { return string(e) }

// errOverloaded is the load-shedding response body.
const errOverloaded = constError("service overloaded: concurrency bound reached, retry later")
