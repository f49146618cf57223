// metrics.go is the serve layer's observability surface: a
// metrics.Registry exporting every engine/admission/coalesce/cursor/
// durability counter, per-endpoint HTTP middleware (request counts by
// response class, latency histograms, in-flight gauges), and the
// GET /metrics Prometheus-text endpoint.
//
// Cardinality is bounded by construction: endpoint label values are
// the fixed route names below, response classes are "1xx".."5xx", and
// histogram buckets are metrics.DefBuckets. Nothing mints a new series
// at request time (see CONTRIBUTING.md for the naming and label
// rules).
//
// The engine's own counters are not mirrored: a scrape snapshots
// engine.Stats()/Health() once (refresh), and func-backed series read
// from that snapshot, so one scrape costs one pass over the engine's
// locks no matter how many series it exports.
package serve

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/reqid"
	"rankedaccess/internal/trace"
)

// serverMetrics owns the registry and the per-endpoint series.
type serverMetrics struct {
	reg *metrics.Registry

	mu     sync.Mutex
	routes map[string]*routeMetrics

	// deprecatedTotal sums deprecated-shim traffic across endpoints
	// (per-endpoint children live in routeMetrics.deprecated).
	deprecatedTotal atomic.Uint64

	// logsSampledOut counts request-log records dropped by load
	// sampling.
	logsSampledOut *metrics.Counter

	// Scrape-time snapshots of engine state (see refresh).
	stats  atomic.Pointer[engine.Stats]
	health atomic.Pointer[engine.Health]
}

// routeMetrics is one endpoint's series set.
type routeMetrics struct {
	classes    [5]*metrics.Counter // response class 1xx..5xx
	lat        *metrics.Histogram
	inflight   *metrics.Gauge
	deprecated *metrics.Counter // non-nil only for legacy shim routes
}

// observe records one finished request; a non-empty traceID becomes
// the latency bucket's exemplar, linking /metrics to /debug/traces.
func (rm *routeMetrics) observe(status int, d time.Duration, traceID string) {
	class := status / 100
	if class < 1 || class > 5 {
		class = 5
	}
	rm.classes[class-1].Inc()
	rm.lat.ObserveExemplar(d.Seconds(), traceID)
}

var classNames = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// route returns (registering on first use) the series for an endpoint.
// Legacy shims share their successor's endpoint label, so per-endpoint
// traffic is the union of both paths; the deprecated counter is what
// splits them.
func (m *serverMetrics) route(endpoint string) *routeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rm := m.routes[endpoint]; rm != nil {
		return rm
	}
	rm := &routeMetrics{
		lat: m.reg.Histogram("ra_http_request_duration_seconds",
			"request latency by endpoint", nil, "endpoint", endpoint),
		inflight: m.reg.Gauge("ra_http_in_flight",
			"requests currently being served by endpoint", "endpoint", endpoint),
	}
	for i, class := range classNames {
		rm.classes[i] = m.reg.Counter("ra_http_requests_total",
			"requests served by endpoint and response class",
			"endpoint", endpoint, "code", class)
	}
	m.routes[endpoint] = rm
	return rm
}

// deprecatedFor registers the deprecated-shim counter for an endpoint
// (idempotent: the legacy route table registers each shim once).
func (m *serverMetrics) deprecatedFor(endpoint string) *metrics.Counter {
	rm := m.route(endpoint)
	m.mu.Lock()
	defer m.mu.Unlock()
	if rm.deprecated == nil {
		rm.deprecated = m.reg.Counter("ra_http_deprecated_requests_total",
			"requests answered through a deprecated legacy route", "endpoint", endpoint)
	}
	return rm.deprecated
}

// refresh snapshots the engine state every func-backed series reads;
// called once per scrape, before rendering.
func (m *serverMetrics) refresh(s *server) {
	st := s.e.Stats()
	h := s.e.Health()
	m.stats.Store(&st)
	m.health.Store(&h)
}

// newServerMetrics builds the registry and registers every non-HTTP
// series: engine counters off the scrape snapshot, admission/coalesce/
// cursor state off the live server. Called after the server's gate,
// coalescer, and cursor store exist.
func newServerMetrics(s *server) *serverMetrics {
	m := &serverMetrics{reg: metrics.NewRegistry(), routes: make(map[string]*routeMetrics)}
	m.refresh(s) // seed the snapshots so a pre-scrape read never sees nil
	reg := m.reg
	st := func() *engine.Stats { return m.stats.Load() }
	hl := func() *engine.Health { return m.health.Load() }

	// Engine: structure cache and prepared-query registry.
	reg.CounterFunc("ra_engine_cache_hits_total",
		"structure cache hits (prepared probes answered without building)",
		func() float64 { return float64(st().Hits) })
	reg.CounterFunc("ra_engine_cache_misses_total",
		"structure cache misses (synchronous O(n log n) builds)",
		func() float64 { return float64(st().Misses) })
	reg.GaugeFunc("ra_engine_cache_entries",
		"access structures currently cached",
		func() float64 { return float64(st().Entries) })
	reg.GaugeFunc("ra_engine_instance_version",
		"current MVCC instance version (bumped by every write batch)",
		func() float64 { return float64(st().Version) })
	reg.GaugeFunc("ra_engine_tuples",
		"tuples in the database instance",
		func() float64 { return float64(st().Tuples) })
	reg.GaugeFunc("ra_engine_prepared_queries",
		"registered named queries",
		func() float64 { return float64(st().Prepared) })
	reg.CounterFunc("ra_engine_registry_hits_total",
		"by-name probes served from a registered query's current handle",
		func() float64 { return float64(st().RegistryHits) })
	reg.CounterFunc("ra_engine_reprepares_total",
		"automatic re-prepares of registered queries after instance mutation",
		func() float64 { return float64(st().Reprepares) })

	// Engine: durability (snapshots + WAL).
	reg.CounterFunc("ra_engine_snapshot_checkpoints_total",
		"snapshot checkpoints written",
		func() float64 { return float64(st().Checkpoints) })
	reg.CounterFunc("ra_engine_snapshot_restores_total",
		"snapshot restores applied",
		func() float64 { return float64(st().Restores) })
	reg.GaugeFunc("ra_engine_warm_structures",
		"structures the most recent warm start rehydrated from a mapped snapshot",
		func() float64 { return float64(st().WarmStructures) })
	reg.CounterFunc("ra_engine_wal_batches_total",
		"mutation batches applied through the write path",
		func() float64 { return float64(st().WALBatches) })
	reg.CounterFunc("ra_engine_wal_errors_total",
		"absorbed durable-WAL append failures (nonzero: the WAL disk is unhealthy)",
		func() float64 { return float64(st().WALErrors) })

	// Engine: MVCC catch-up traffic.
	reg.CounterFunc("ra_engine_delta_skips_total",
		"stale structures republished unchanged (writes missed their relations)",
		func() float64 { return float64(st().DeltaSkips) })
	reg.CounterFunc("ra_engine_delta_epochs_total",
		"overlay epochs published (writes absorbed without rebuilding)",
		func() float64 { return float64(st().DeltaEpochs) })
	reg.CounterFunc("ra_engine_delta_rebuilds_total",
		"stale structures forced into a synchronous rebuild",
		func() float64 { return float64(st().DeltaRebuilds) })
	reg.CounterFunc("ra_engine_bg_rebuilds_total",
		"background re-preprocesses that completed and swapped in",
		func() float64 { return float64(st().BGRebuilds) })

	// Engine: degradation state.
	reg.GaugeFunc("ra_engine_degraded",
		"1 while the engine sheds writes (broken WAL or overlay backlog at the hard limit)",
		func() float64 {
			if hl().Degraded() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("ra_engine_overlay_edits_max",
		"largest delta overlay any cached structure carries",
		func() float64 { return float64(hl().MaxOverlayEdits) })
	reg.GaugeFunc("ra_engine_bg_rebuilding",
		"background re-preprocesses in flight",
		func() float64 { return float64(hl().BGRebuilding) })

	// Serve: admission, coalescing, degradation, cursors.
	reg.CounterFunc("ra_serve_shed_rate_limited_total",
		"requests shed by the per-client rate limiter (429)",
		func() float64 { return float64(s.shed429.Load()) })
	reg.CounterFunc("ra_serve_shed_overload_total",
		"requests shed by the concurrency gate (503)",
		func() float64 { return float64(s.shed503.Load()) })
	reg.GaugeFunc("ra_serve_gate_in_flight",
		"requests holding a concurrency-gate slot",
		func() float64 {
			if s.gate == nil {
				return 0
			}
			return float64(s.gate.Active())
		})
	reg.GaugeFunc("ra_serve_gate_queue_depth",
		"requests waiting for a concurrency-gate slot",
		func() float64 {
			if s.gate == nil {
				return 0
			}
			return float64(s.gate.QueueDepth())
		})
	reg.CounterFunc("ra_serve_coalesce_hits_total",
		"probe windows served from the coalescer (shared flight or cached body)",
		func() float64 { return float64(s.coal.hits.Load()) })
	reg.CounterFunc("ra_serve_coalesce_misses_total",
		"probe windows that paid their own probe + encode",
		func() float64 { return float64(s.coal.misses.Load()) })
	reg.CounterFunc("ra_serve_degraded_reads_total",
		"reads answered from a stale epoch while the engine was degraded",
		func() float64 { return float64(s.degradedReads.Load()) })
	reg.CounterFunc("ra_serve_write_sheds_total",
		"writes refused while the engine was degraded",
		func() float64 { return float64(s.writeSheds.Load()) })
	reg.GaugeFunc("ra_serve_open_cursors",
		"server-side cursors currently open",
		func() float64 { return float64(s.st.open()) })
	reg.CounterFunc("ra_http_deprecated_requests_sum",
		"total requests answered through any deprecated legacy route",
		func() float64 { return float64(m.deprecatedTotal.Load()) })
	m.logsSampledOut = reg.Counter("ra_http_request_logs_sampled_out_total",
		"request-log records dropped by under-load sampling")
	if s.cfg.ExtraMetrics != nil {
		s.cfg.ExtraMetrics(reg)
	}
	return m
}

// recPool recycles status recorders so the middleware adds no
// steady-state allocations to instrumented handlers.
var recPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// statusRecorder captures the response status and body size on its way
// to the real ResponseWriter. Unwrap exposes the underlying writer so
// http.ResponseController (used by NDJSON streaming for flushes and
// per-chunk write deadlines) reaches the connection's controls through
// the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// instrument wraps a fully-composed handler chain (admission included,
// so shed 429/503 responses are counted like any other) with the
// per-endpoint middleware: in-flight gauge, latency histogram,
// response-class counter, and — when request logging is on — request
// id assignment and one structured log record per request.
//
// Counting happens in a defer, so no exit path can skip it: early
// fail() returns, NDJSON streams that never call WriteHeader (the
// recorder defaults to 200 on first Write), admission sheds, and even
// handler panics (counted as 5xx, then re-unwound to the server's
// recovery) all land in the same series.
func (s *server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	rm := s.mets.route(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		sr := recPool.Get().(*statusRecorder)
		sr.ResponseWriter, sr.status, sr.bytes = w, 0, 0
		var id string
		if s.reqLog != nil {
			id = incomingID(r)
			sr.Header().Set("X-Request-ID", id)
			r = r.WithContext(reqid.With(r.Context(), id))
		}
		// The HTTP server span: adopt the caller's trace when the
		// request carries a valid traceparent (this server is one hop
		// of a larger request), mint one otherwise. With no tracer
		// configured this whole block is two nil checks.
		var span *trace.Span
		if s.tracer != nil {
			ctx := r.Context()
			if sc, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
				ctx = trace.ContextWithRemote(ctx, sc)
			}
			ctx, span = s.tracer.Start(ctx, "http."+endpoint, trace.KindServer)
			span.SetAttr(
				trace.Str("endpoint", endpoint),
				trace.Str("method", r.Method),
			)
			r = r.WithContext(ctx)
		}
		rm.inflight.Inc()
		start := time.Now()
		panicked := true
		defer func() {
			d := time.Since(start)
			rm.inflight.Dec()
			status, bytes := sr.status, sr.bytes
			if status == 0 {
				if panicked {
					status = http.StatusInternalServerError
				} else {
					// A clean return with no writes is an implicit 200.
					status = http.StatusOK
				}
			}
			sr.ResponseWriter = nil
			recPool.Put(sr)
			var traceID string
			if span != nil {
				traceID = span.TraceIDString()
				span.SetAttr(trace.Int("status", int64(status)))
				if status >= 500 {
					span.SetErrorString(http.StatusText(status))
				}
				span.End()
			}
			rm.observe(status, d, traceID)
			if s.reqLog != nil {
				s.logRequest(r, endpoint, id, traceID, status, bytes, d)
			}
		}()
		h(sr, r)
		panicked = false
	}
}

// handleMetrics renders the registry in the Prometheus text exposition
// format. Monitoring surface: bypasses admission, like /stats.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mets.refresh(s)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.mets.reg.WritePrometheus(w)
}
