// Package serve exposes an engine.Engine as an HTTP/JSON service — the
// front end cmd/serve mounts. All request bodies are JSON; answers are
// head tuples of dictionary-encoded int64 values.
//
// The primary surface is the versioned prepared-query API under /v1
// (register a spec once under a name, probe and stream it by name —
// see v1.go), the batch mutation endpoint /v1/write (atomic,
// WAL-durable relational writes — see write.go), plus the snapshot
// durability endpoints when a snapshot directory is configured
// (checkpoint/list/restore — see snapshots.go).
// The one-shot endpoints live under /v1/instance:
//
//	POST /v1/instance/load      {"relation": "R", "rows": [[1,2], ...]}
//	POST /v1/instance/access    {"query", "order"|"sum_by", "fds", "ks": [0, 7, ...]}
//	POST /v1/instance/range     {"query", "order"|"sum_by", "fds", "k0", "k1"}
//	POST /v1/instance/select    {"query", "order"|"sum_by", "fds", "k"}
//	POST /v1/instance/classify  {"problem", "query", "order", "fds"}
//	POST /v1/instance/count     {"query"}
//	GET  /v1/stats
//	GET  /healthz
//	GET  /readyz
//	GET  /metrics
//
// The unversioned originals (/load, /access, ..., /stats) stay mounted
// as deprecation shims over the same handlers: byte-identical bodies,
// plus Deprecation and Link: rel="successor-version" headers (see
// CONTRIBUTING.md for the sunset policy).
//
// Observability (this file + metrics.go/reqlog.go/ops.go): every
// route passes a per-endpoint middleware recording request counts by
// response class, latency histograms, and in-flight gauges; GET
// /metrics renders them — plus every engine/admission/coalescer/WAL
// counter — in the Prometheus text format; Config.RequestLog enables
// structured per-request slog records with propagated request ids; and
// NewOpsHandler mounts pprof + monitoring for a private ops listener.
//
// /access is batched: any number of indices is answered with a single
// plan/cache lookup, so a cold query pays one preprocessing and a warm
// query pays none. /range answers a contiguous index window through the
// engine's AccessRange, which reuses one probe buffer for the whole
// window. Response encoding goes through pooled buffers, so the handlers
// allocate per response burst, not per answer.
//
// Sharded serving: /access, /range, and /count accept "shards" (and
// optionally "shard_by"); the engine partitions the instance, builds
// per-shard structures in parallel, and the handlers' probes fan out
// across shards and merge by global rank — each shard keeping its
// zero-alloc buffered probe path.
//
// Overload behavior: every non-monitoring request passes the admission
// pipeline (per-client token bucket → per-request deadline → global
// concurrency gate, see resilience.go); hot probe windows coalesce
// (see coalesce.go); a degraded engine serves reads from the last
// published epoch and sheds writes with 503 + Retry-After. /stats,
// /healthz, and /readyz bypass admission.
//
// Error handling: every response funnels through one writer that
// encodes the full body before emitting the status line, so error
// statuses are always set before any byte of the body and every error
// body is a structured {"error": ...} object.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/admission"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/metrics"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/trace"
	"rankedaccess/internal/values"
)

// defaultMaxBody bounds request bodies when Config.MaxBodyBytes is
// unset (a /load of a few million rows fits).
const defaultMaxBody = 256 << 20

// defaultStreamWriteTimeout bounds each NDJSON chunk write when
// Config.StreamWriteTimeout is unset: a reader that accepts nothing
// for this long is presumed gone, and its stream — and the epoch
// handle the cursor pins — is released.
const defaultStreamWriteTimeout = 30 * time.Second

// maxPooledBuf bounds (in bytes) the encode buffers kept in the pool,
// and maxPooledTuples bounds (in values) the flat answer buffers, so
// one giant response does not pin its memory forever.
const (
	maxPooledBuf    = 1 << 20
	maxPooledTuples = maxPooledBuf / 8
)

// encPool recycles JSON encode buffers across responses.
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// tuplePool recycles the flat answer buffers of /range responses.
var tuplePool = sync.Pool{New: func() any { return new([]values.Value) }}

// ndjsonPool recycles the line-encoding buffers of NDJSON streaming.
var ndjsonPool = sync.Pool{New: func() any { return new([]byte) }}

// putTupleBuf returns a flat answer buffer to the pool unless it grew
// past the cap.
func putTupleBuf(flatP *[]values.Value, flat []values.Value) {
	if cap(flat) <= maxPooledTuples {
		*flatP = flat
		tuplePool.Put(flatP)
	}
}

// Config tunes optional server features. The zero value serves with
// resilience features at safe defaults: no rate limit, no concurrency
// gate, no request deadline (set them to engage admission control),
// coalescing on, 256 MiB bodies, 30s stream write deadline.
type Config struct {
	// SnapshotDir, when non-empty, enables the durability endpoints
	// (/v1/snapshots — checkpoint, list, restore) against that
	// directory, and gates /readyz on the directory staying writable.
	// Empty leaves them unmounted.
	SnapshotDir string

	// RequestTimeout bounds one non-streaming request end to end,
	// including queue wait and engine work; a request that exceeds it
	// is answered 503 with Retry-After. 0 means no deadline.
	RequestTimeout time.Duration

	// MaxBodyBytes caps request bodies (413 beyond it) on every
	// decoding endpoint, /v1/write included. 0 means 256 MiB.
	MaxBodyBytes int64

	// RatePerSec and RateBurst configure the per-client token bucket;
	// clients over budget get 429 with Retry-After. RatePerSec <= 0
	// disables rate limiting.
	RatePerSec float64
	RateBurst  int

	// MaxConcurrent caps requests running at once; MaxQueue caps how
	// many may wait for a slot (beyond that: 503 + Retry-After).
	// MaxConcurrent <= 0 disables the gate; MaxQueue < 0 defaults to
	// MaxConcurrent.
	MaxConcurrent int
	MaxQueue      int

	// StreamWriteTimeout bounds each NDJSON chunk write, so one
	// stalled reader cannot pin a cursor's epoch forever. 0 means 30s;
	// negative disables the deadline.
	StreamWriteTimeout time.Duration

	// CoalesceCache is the number of hot probe-window bodies kept for
	// reuse. 0 means 256; negative disables coalescing entirely.
	CoalesceCache int

	// RequestLog, when non-nil, emits one structured record per request
	// (pair it with slog.NewJSONHandler for JSON logs): method, path,
	// endpoint, status, bytes, latency, client, request id. Ids are
	// adopted from X-Request-ID or minted, echoed in the response
	// header, and propagated via context into engine build/rebuild/
	// degradation events (see internal/reqid). Nil disables request
	// logging — and skips its per-request work entirely.
	RequestLog *slog.Logger

	// LogMaxPerSec bounds request-log volume under load: past this many
	// records in one wall-clock second, only every 16th further record
	// is kept (drops are counted in
	// ra_http_request_logs_sampled_out_total). 0 means 500; negative
	// disables sampling.
	LogMaxPerSec int

	// ReadyCheck, when non-nil, contributes extra readiness reasons to
	// /readyz (each returned string flips readiness false). The
	// coordinator role wires its cluster health here, so an unreachable
	// shard node routes traffic away.
	ReadyCheck func() []string

	// ExtraMetrics, when non-nil, is invoked once on the server's
	// metrics registry at construction, so roles can attach their own
	// series (per-peer RPC metrics, RPC server counters) to the same
	// /metrics endpoint.
	ExtraMetrics func(*metrics.Registry)

	// Tracer, when non-nil, wraps every request in a server span:
	// incoming traceparent headers are adopted (the request joins its
	// caller's trace), otherwise a trace is minted; latency-histogram
	// exemplars link /metrics buckets to the stored traces. Nil
	// disables tracing with zero per-request cost.
	Tracer *trace.Tracer
}

// server holds one mounted API's state: the engine, admission
// machinery, cursor store, coalescer, and overload counters.
type server struct {
	e   *engine.Engine
	cfg Config
	st  *cursorStore

	lim  *admission.RateLimiter // nil: rate limiting off
	gate *admission.Gate        // nil: concurrency gate off
	coal *coalescer

	maxBody     int64
	streamWrite time.Duration // <= 0: no per-chunk write deadline

	shed429       atomic.Uint64 // rate-limited requests
	shed503       atomic.Uint64 // gate-shed requests
	degradedReads atomic.Uint64 // reads answered from a stale epoch
	writeSheds    atomic.Uint64 // writes refused while degraded

	mets    *serverMetrics // /metrics registry + per-endpoint series
	reqLog  *slog.Logger   // nil: request logging off
	logSamp logSampler
	tracer  *trace.Tracer // nil: tracing off

	healthMu sync.Mutex
	healthAt time.Time
	healthC  engine.Health
}

// NewHandler mounts the API for one engine with default configuration;
// see NewHandlerWith.
func NewHandler(e *engine.Engine) http.Handler {
	return NewHandlerWith(e, Config{})
}

// NewHandlerWith mounts the API for one engine: the versioned /v1
// prepared-query surface (see v1.go), the snapshot endpoints when
// configured (see snapshots.go), the probe endpoints (see health.go),
// and the legacy one-shot endpoints, which are thin shims over the
// same cores and remain supported (see CONTRIBUTING.md for the
// deprecation policy).
func NewHandlerWith(e *engine.Engine, cfg Config) http.Handler {
	s := &server{e: e, cfg: cfg, st: newCursorStore(defaultMaxCursors)}
	s.maxBody = cfg.MaxBodyBytes
	if s.maxBody <= 0 {
		s.maxBody = defaultMaxBody
	}
	s.streamWrite = cfg.StreamWriteTimeout
	if s.streamWrite == 0 {
		s.streamWrite = defaultStreamWriteTimeout
	}
	if cfg.RatePerSec > 0 {
		s.lim = admission.NewRateLimiter(cfg.RatePerSec, cfg.RateBurst, 0)
	}
	if cfg.MaxConcurrent > 0 {
		s.gate = admission.NewGate(cfg.MaxConcurrent, cfg.MaxQueue)
	}
	s.coal = newCoalescer(cfg.CoalesceCache)
	s.reqLog = cfg.RequestLog
	s.tracer = cfg.Tracer
	s.logSamp.max = int64(cfg.LogMaxPerSec)
	if s.logSamp.max == 0 {
		s.logSamp.max = defaultLogMaxPerSec
	}
	// The metrics registry needs the gate/coalescer/cursor store above;
	// the routes below need the registry (instrument resolves each
	// endpoint's series at mount time, so request paths never look one
	// up).
	s.mets = newServerMetrics(s)

	mux := http.NewServeMux()

	// One-shot instance endpoints, canonical under /v1/instance. The
	// unversioned originals stay mounted as deprecation shims: the same
	// handler chain (bodies stay byte-identical), plus Deprecation and
	// Link response headers and a deprecated-traffic counter. See
	// CONTRIBUTING.md for the sunset policy.
	s.route(mux, "POST /v1/instance/load", "instance_load", s.admit(s.handleLoad))
	s.route(mux, "POST /v1/instance/access", "instance_access", s.admit(s.handleAccess))
	s.route(mux, "POST /v1/instance/range", "instance_range", s.admit(s.handleRange))
	s.route(mux, "POST /v1/instance/select", "instance_select", s.admit(s.handleSelect))
	s.route(mux, "POST /v1/instance/classify", "instance_classify", s.admit(s.handleClassify))
	s.route(mux, "POST /v1/instance/count", "instance_count", s.admit(s.handleCount))
	s.routeDeprecated(mux, "POST /load", "instance_load", "/v1/instance/load", s.admit(s.handleLoad))
	s.routeDeprecated(mux, "POST /access", "instance_access", "/v1/instance/access", s.admit(s.handleAccess))
	s.routeDeprecated(mux, "POST /range", "instance_range", "/v1/instance/range", s.admit(s.handleRange))
	s.routeDeprecated(mux, "POST /select", "instance_select", "/v1/instance/select", s.admit(s.handleSelect))
	s.routeDeprecated(mux, "POST /classify", "instance_classify", "/v1/instance/classify", s.admit(s.handleClassify))
	s.routeDeprecated(mux, "POST /count", "instance_count", "/v1/instance/count", s.admit(s.handleCount))

	// Monitoring endpoints bypass admission: an operator must be able
	// to observe (and an orchestrator to probe) an overloaded server.
	// They still pass the middleware, so scrape/probe traffic is
	// visible in the request series like everything else.
	s.route(mux, "GET /v1/stats", "stats", s.handleStats)
	s.routeDeprecated(mux, "GET /stats", "stats", "/v1/stats", s.handleStats)
	s.route(mux, "GET /healthz", "healthz", s.handleHealthz)
	s.route(mux, "GET /readyz", "readyz", s.handleReadyz)
	s.route(mux, "GET /metrics", "metrics", s.handleMetrics)

	s.route(mux, "POST /v1/write", "write", s.admit(s.handleWrite))
	s.route(mux, "POST /v1/queries", "queries_register", s.admit(s.handleRegister))
	s.route(mux, "GET /v1/queries", "queries_list", s.admit(s.handleList))
	s.route(mux, "GET /v1/queries/{name}", "queries_get", s.admit(s.handleGetQuery))
	s.route(mux, "DELETE /v1/queries/{name}", "queries_evict", s.admit(s.handleEvict))
	s.route(mux, "POST /v1/queries/{name}/access", "query_access", s.admit(s.handleV1Access))
	s.route(mux, "POST /v1/queries/{name}/range", "query_range", s.admit(s.handleV1Range))
	s.route(mux, "POST /v1/queries/{name}/select", "query_select", s.admit(s.handleV1Select))
	s.route(mux, "POST /v1/queries/{name}/count", "query_count", s.admit(s.handleV1Count))
	s.route(mux, "POST /v1/queries/{name}/classify", "query_classify", s.admit(s.handleV1Classify))
	s.route(mux, "POST /v1/queries/{name}/cursor", "cursor_create", s.admit(s.handleCursorCreate))
	s.route(mux, "GET /v1/cursors/{id}/next", "cursor_next", s.admitStream(s.handleCursorNext))
	s.route(mux, "DELETE /v1/cursors/{id}", "cursor_close", s.admit(s.handleCursorClose))
	if dir := cfg.SnapshotDir; dir != "" {
		s.route(mux, "POST /v1/snapshots", "snapshot_create",
			s.admit(func(w http.ResponseWriter, r *http.Request) { handleSnapshotCreate(e, dir, w, r) }))
		s.route(mux, "GET /v1/snapshots", "snapshot_list",
			s.admit(func(w http.ResponseWriter, r *http.Request) { handleSnapshotList(dir, w, r) }))
		s.route(mux, "POST /v1/snapshots/{name}/restore", "snapshot_restore",
			s.admit(func(w http.ResponseWriter, r *http.Request) { handleSnapshotRestore(e, dir, w, r) }))
	}
	return apiHandler{ServeMux: mux, s: s}
}

// route mounts one endpoint under the per-endpoint middleware (see
// instrument in metrics.go). The endpoint name is the metric label —
// one of a fixed set chosen here, never derived from the request.
func (s *server) route(mux *http.ServeMux, pattern, endpoint string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, s.instrument(endpoint, h))
}

// routeDeprecated mounts a legacy path as a shim over its /v1
// successor: the same handler chain, so bodies stay byte-identical,
// plus RFC 8594-style deprecation headers and a per-endpoint
// deprecated-traffic counter (how much legacy traffic remains is the
// input to the sunset policy in CONTRIBUTING.md). The shim shares the
// successor's endpoint label; the deprecated counter is what splits
// legacy volume out of the shared series.
func (s *server) routeDeprecated(mux *http.ServeMux, pattern, endpoint, successor string, h http.HandlerFunc) {
	dep := s.mets.deprecatedFor(endpoint)
	link := "<" + successor + `>; rel="successor-version"`
	mux.HandleFunc(pattern, s.instrument(endpoint, func(w http.ResponseWriter, r *http.Request) {
		dep.Inc()
		s.mets.deprecatedTotal.Add(1)
		hd := w.Header()
		hd.Set("Deprecation", "true")
		hd.Set("Link", link)
		h(w, r)
	}))
}

// specPayload is the request fragment shared by the query endpoints.
// Shards ≥ 2 requests scatter-gather execution: the engine partitions
// the instance, builds per-shard structures in parallel, and the
// handlers' accesses fan out across shards and merge by global rank.
type specPayload struct {
	Query   string   `json:"query"`
	Order   string   `json:"order,omitempty"`
	SumBy   []string `json:"sum_by,omitempty"`
	FDs     []string `json:"fds,omitempty"`
	Shards  int      `json:"shards,omitempty"`
	ShardBy string   `json:"shard_by,omitempty"`
}

func (p specPayload) spec() engine.Spec {
	return engine.Spec{
		Query: p.Query, Order: p.Order, SumBy: p.SumBy, FDs: p.FDs,
		Shards: p.Shards, ShardBy: p.ShardBy,
	}
}

// shardEcho is the response fragment reporting how a request was
// sharded (omitted entirely when execution was single-structure).
type shardEcho struct {
	Shards    int    `json:"shards,omitempty"`
	ShardBy   string `json:"shard_by,omitempty"`
	ShardNote string `json:"shard_note,omitempty"`
}

func shardInfo(p engine.Plan) shardEcho {
	return shardEcho{Shards: p.Shards, ShardBy: p.ShardBy, ShardNote: p.ShardNote}
}

type loadRequest struct {
	Relation string           `json:"relation"`
	Rows     [][]values.Value `json:"rows"`
}

type loadResponse struct {
	Relation string `json:"relation"`
	Loaded   int    `json:"loaded"`
	Version  uint64 `json:"version"`
}

func (s *server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.shedWrite(w, r) {
		return
	}
	var req loadRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Relation == "" {
		fail(w, http.StatusBadRequest, errors.New("serve: relation is required"))
		return
	}
	// AddRows validates arity (against the existing relation or within
	// the batch) before mutating anything.
	if err := s.e.AddRows(req.Relation, req.Rows); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	reply(w, loadResponse{Relation: req.Relation, Loaded: len(req.Rows), Version: s.e.Version()})
}

type accessRequest struct {
	specPayload
	Ks []int64 `json:"ks"`
}

type accessAnswer struct {
	K     int64          `json:"k"`
	Tuple []values.Value `json:"tuple,omitempty"`
	Error string         `json:"error,omitempty"`
}

type accessResponse struct {
	Total     int64  `json:"total"`
	Mode      string `json:"mode"`
	Tractable bool   `json:"tractable"`
	Verdict   string `json:"verdict"`
	shardEcho
	Answers []accessAnswer `json:"answers"`
}

// buildAccessResponse probes a batch of indices against a prepared
// handle — the core shared by the legacy /access endpoint and
// /v1/queries/{name}/access. One flat backing array serves the whole
// batch; per-index failures land in the answer entries without failing
// the batch — EXCEPT infrastructure failures (an unreachable or stale
// shard node), which abort the whole batch: a half-answered batch
// whose gaps mean "the cluster is down", not "out of range", would
// read as data.
func buildAccessResponse(ctx context.Context, h *engine.Handle, ks []int64) (accessResponse, error) {
	resp := accessResponse{
		Total:     h.Total(),
		Mode:      string(h.Plan.Mode),
		Tractable: h.Plan.Tractable,
		Verdict:   h.Plan.VerdictText(),
		shardEcho: shardInfo(h.Plan),
		Answers:   make([]accessAnswer, len(ks)),
	}
	flat := make([]values.Value, 0, len(ks)*h.Width())
	for i, k := range ks {
		resp.Answers[i].K = k
		start := len(flat)
		var err error
		flat, err = h.AppendTupleCtx(ctx, flat, k)
		if err != nil {
			if errors.Is(err, rpc.ErrUnavailable) || errors.Is(err, rpc.ErrStaleVersion) {
				return accessResponse{}, err
			}
			resp.Answers[i].Error = publicErr(err)
			flat = flat[:start]
			continue
		}
		resp.Answers[i].Tuple = flat[start:len(flat):len(flat)]
	}
	return resp, nil
}

func (s *server) handleAccess(w http.ResponseWriter, r *http.Request) {
	var req accessRequest
	if !s.decode(w, r, &req) {
		return
	}
	h, err := s.e.PrepareCtx(r.Context(), req.spec())
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	resp, err := buildAccessResponse(r.Context(), h, req.Ks)
	if err != nil {
		failErr(w, err)
		return
	}
	reply(w, resp)
}

type rangeRequest struct {
	specPayload
	K0 int64 `json:"k0"`
	K1 int64 `json:"k1"`
}

type rangeResponse struct {
	Total     int64  `json:"total"`
	Mode      string `json:"mode"`
	Tractable bool   `json:"tractable"`
	K0        int64  `json:"k0"`
	shardEcho
	Tuples [][]values.Value `json:"tuples"`
}

// maxRange bounds one /range window (the client can page).
const maxRange = 1 << 20

func (s *server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req rangeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.K1-req.K0 > maxRange {
		fail(w, http.StatusBadRequest, fmt.Errorf("serve: range wider than %d; page the request", maxRange))
		return
	}
	h, err := s.e.PrepareCtx(r.Context(), req.spec())
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	flatP := tuplePool.Get().(*[]values.Value)
	flat, err := h.AccessRangeCtx(r.Context(), (*flatP)[:0], req.K0, req.K1)
	if err != nil {
		putTupleBuf(flatP, flat)
		status := http.StatusBadRequest
		if errors.Is(err, access.ErrOutOfBound) {
			status = http.StatusRequestedRangeNotSatisfiable
		}
		fail(w, status, err)
		return
	}
	reply(w, buildRangeResponse(h, flat, req.K0, req.K1))
	putTupleBuf(flatP, flat)
}

// buildRangeResponse slices one flat answer buffer into per-tuple
// views — the core shared by the legacy /range endpoint and
// /v1/queries/{name}/range.
func buildRangeResponse(h *engine.Handle, flat []values.Value, k0, k1 int64) rangeResponse {
	width := h.Width()
	resp := rangeResponse{
		Total: h.Total(), Mode: string(h.Plan.Mode), Tractable: h.Plan.Tractable, K0: k0,
		shardEcho: shardInfo(h.Plan),
	}
	n := 0
	if width > 0 {
		n = len(flat) / width
	} else {
		n = int(k1 - k0)
	}
	resp.Tuples = make([][]values.Value, n)
	for i := 0; i < n; i++ {
		resp.Tuples[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return resp
}

type selectRequest struct {
	specPayload
	K int64 `json:"k"`
}

type selectResponse struct {
	K     int64          `json:"k"`
	Tuple []values.Value `json:"tuple"`
}

func (s *server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req selectRequest
	if !s.decode(w, r, &req) {
		return
	}
	tuple, err := s.e.Select(req.spec(), req.K)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, access.ErrOutOfBound) {
			status = http.StatusNotFound
		}
		fail(w, status, err)
		return
	}
	reply(w, selectResponse{K: req.K, Tuple: tuple})
}

type classifyRequest struct {
	specPayload
	Problem string `json:"problem"`
}

type classifyResponse struct {
	Tractable bool     `json:"tractable"`
	Bound     string   `json:"bound"`
	Verdict   string   `json:"verdict"`
	Trio      []string `json:"trio,omitempty"`
}

func (s *server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req classifyRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Problem == "" {
		req.Problem = engine.ProblemDirectAccessLex
	}
	v, err := s.e.Classify(req.Problem, req.spec())
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	reply(w, classifyResponse{Tractable: v.Tractable, Bound: v.Bound, Verdict: v.String(), Trio: v.Trio})
}

type countRequest struct {
	Query   string `json:"query"`
	Shards  int    `json:"shards,omitempty"`
	ShardBy string `json:"shard_by,omitempty"`
}

type countResponse struct {
	Count int64 `json:"count"`
	shardEcho
}

func (s *server) handleCount(w http.ResponseWriter, r *http.Request) {
	var req countRequest
	if !s.decode(w, r, &req) {
		return
	}
	// Shards ≥ 2 scatter-gathers: per-shard counts run in parallel and
	// sum (shard answer sets partition the answer space).
	n, info, err := s.e.CountSharded(req.Query, req.Shards, req.ShardBy)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	reply(w, countResponse{Count: n, shardEcho: shardEcho{
		Shards: info.Shards, ShardBy: info.ShardBy, ShardNote: info.ShardNote,
	}})
}

type statsResponse struct {
	Hits    uint64 `json:"cache_hits"`
	Misses  uint64 `json:"cache_misses"`
	Entries int    `json:"cache_entries"`
	Version uint64 `json:"version"`
	Tuples  int    `json:"tuples"`
	// Prepared-query registry counters: RegistryHits counts by-name
	// probes answered with zero spec re-parsing, Reprepares counts
	// automatic rebuilds after instance mutation.
	Prepared     int    `json:"prepared"`
	RegistryHits uint64 `json:"registry_hits"`
	Reprepares   uint64 `json:"reprepares"`
	OpenCursors  int    `json:"open_cursors"`
	// Snapshot counters: checkpoints written, restores applied, and the
	// number of structures the most recent warm start rehydrated from a
	// mapped snapshot instead of rebuilding.
	Checkpoints    uint64 `json:"snapshot_checkpoints"`
	Restores       uint64 `json:"snapshot_restores"`
	WarmStructures uint64 `json:"warm_structures"`
	// Write-path counters: mutation batches applied, and how stale
	// structures caught up — republished unchanged (untouched
	// relations), advanced by delta overlay, or forced to rebuild —
	// plus background re-preprocesses that swapped in.
	WALBatches    uint64 `json:"wal_batches"`
	DeltaSkips    uint64 `json:"delta_skips"`
	DeltaEpochs   uint64 `json:"delta_epochs"`
	DeltaRebuilds uint64 `json:"delta_rebuilds"`
	BGRebuilds    uint64 `json:"bg_rebuilds"`
	WALErrors     uint64 `json:"wal_errors"`
	// Overload counters: requests shed by the rate limiter (429) and
	// the concurrency gate (503), current gate occupancy and queue
	// depth, coalescer traffic, reads served from a stale epoch while
	// degraded, and writes refused while degraded.
	Shed429        uint64 `json:"shed_rate_limited"`
	Shed503        uint64 `json:"shed_overload"`
	InFlight       int    `json:"in_flight"`
	QueueDepth     int    `json:"queue_depth"`
	CoalesceHits   uint64 `json:"coalesce_hits"`
	CoalesceMisses uint64 `json:"coalesce_misses"`
	DegradedReads  uint64 `json:"degraded_reads"`
	WriteSheds     uint64 `json:"write_sheds"`
	Degraded       bool   `json:"degraded"`
	// DeprecatedRequests counts requests answered through a deprecated
	// legacy route (the unversioned shims over /v1/instance/* and
	// /v1/stats).
	DeprecatedRequests uint64 `json:"deprecated_requests"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.e.Stats()
	resp := statsResponse{
		Hits: st.Hits, Misses: st.Misses, Entries: st.Entries,
		Version: st.Version, Tuples: st.Tuples,
		Prepared: st.Prepared, RegistryHits: st.RegistryHits,
		Reprepares: st.Reprepares, OpenCursors: s.st.open(),
		Checkpoints: st.Checkpoints, Restores: st.Restores,
		WarmStructures: st.WarmStructures,
		WALBatches:     st.WALBatches, DeltaSkips: st.DeltaSkips,
		DeltaEpochs: st.DeltaEpochs, DeltaRebuilds: st.DeltaRebuilds,
		BGRebuilds: st.BGRebuilds, WALErrors: st.WALErrors,
		Shed429:            s.shed429.Load(),
		Shed503:            s.shed503.Load(),
		DegradedReads:      s.degradedReads.Load(),
		WriteSheds:         s.writeSheds.Load(),
		Degraded:           s.health().Degraded(),
		DeprecatedRequests: s.mets.deprecatedTotal.Load(),
	}
	if s.gate != nil {
		resp.InFlight = s.gate.Active()
		resp.QueueDepth = s.gate.QueueDepth()
	}
	resp.CoalesceHits = s.coal.hits.Load()
	resp.CoalesceMisses = s.coal.misses.Load()
	reply(w, resp)
}

func (s *server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		fail(w, status, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	return true
}

type errorResponse struct {
	Error string `json:"error"`
}

// fail writes a structured error. A deadline or cancellation error is
// never the client's fault in this API — it means the request ran out
// of budget inside the engine — so it is reported as overload: 503
// with a Retry-After, regardless of the status the handler guessed.
func fail(w http.ResponseWriter, status int, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusServiceUnavailable
		setRetryAfter(w, time.Second)
	}
	// An unreachable shard node already survived the RPC layer's
	// retry-once; tell the client when to come back instead of letting
	// it hammer a cluster that is mid-failover.
	if errors.Is(err, rpc.ErrUnavailable) {
		status = http.StatusServiceUnavailable
		setRetryAfter(w, time.Second)
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func reply(w http.ResponseWriter, body any) {
	writeJSON(w, http.StatusOK, body)
}

// writeJSON encodes through a pooled buffer: one write syscall per
// response and no per-response encoder garbage. Oversized buffers are
// dropped instead of pooled.
//
// Every handler response — success or error — funnels through here, and
// the body is fully encoded into the buffer BEFORE the status line is
// written: a late encoding failure therefore still produces a clean
// status code and a structured {"error": ...} body, never a 200 with a
// truncated or mixed payload.
func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := encPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		encPool.Put(buf)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"serve: response encoding failed"}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		encPool.Put(buf)
	}
}

// writeRaw emits a pre-encoded JSON body (the coalescer caches and
// shares encoded bodies across requests).
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// encodeJSON renders a response body to a standalone slice — coalesce
// cache entries outlive any one request, so no pooled buffer.
func encodeJSON(body any) ([]byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// publicErr maps per-index access errors to stable API strings.
func publicErr(err error) string {
	switch {
	case errors.Is(err, access.ErrOutOfBound):
		return "out of bound"
	case errors.Is(err, access.ErrNotAnAnswer):
		return "not an answer"
	default:
		return err.Error()
	}
}
