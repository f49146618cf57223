// Package client is the Go SDK for the ranked direct-access service's
// v1 prepared-query API (cmd/serve). It depends only on the standard
// library (plus the dependency-free internal/trace context package),
// so importing it does not pull in the engine.
//
// When the calling context carries a trace span (internal/trace), every
// request sends a W3C traceparent header, so a traced caller's requests
// join its trace on the server side.
//
// The shape mirrors prepared statements: Dial a server, Register a
// spec once under a name, then probe the returned Prepared by name —
// Access for index batches, Range for contiguous windows, Cursor for
// stateful paging and NDJSON streaming:
//
//	c, err := client.Dial(ctx, "http://localhost:8080", nil)
//	p, err := c.Register(ctx, "by_xy", client.Spec{
//		Query: "Q(x, y, z) :- R(x, y), S(y, z)",
//		Order: "x, y desc",
//	})
//	rows, err := p.Range(ctx, 0, 100)
//	cur, err := p.Cursor(ctx, 0)
//	n, err := cur.Stream(ctx, 10000, func(row []client.Value) error {
//		...; return nil // row aliases a reused buffer
//	})
//
// Errors carry the server's {"error": ...} envelope as *APIError and
// satisfy errors.Is against the package sentinels (ErrNotPrepared,
// ErrOutOfRange, ErrIntractable, ErrCursorInvalidated), which map the
// v1 API's stable status codes (404/416/422/410) back to the same
// conditions the in-process facade reports.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"rankedaccess/internal/trace"
)

// Value is a dictionary-encoded domain value, as served by the engine.
type Value = int64

// Sentinel errors mirroring the facade's serving errors; *APIError
// values returned by every method satisfy errors.Is against them.
var (
	// ErrNotPrepared: no prepared query or cursor with that name/id
	// (HTTP 404).
	ErrNotPrepared = errors.New("client: not prepared")
	// ErrOutOfRange: a rank or range outside [0, |Q(I)|) (HTTP 416).
	ErrOutOfRange = errors.New("client: out of range")
	// ErrIntractable: the spec is on the intractable side of the
	// dichotomy and was registered strict (HTTP 422).
	ErrIntractable = errors.New("client: intractable")
	// ErrCursorInvalidated: the server instance mutated under the
	// cursor (HTTP 410).
	//
	// Deprecated: servers drain every cursor over the epoch it was
	// opened on and never report an invalidated one. The sentinel and
	// its HTTP 410 mapping stay until the next major version.
	ErrCursorInvalidated = errors.New("client: cursor invalidated by instance mutation")
)

// APIError is a non-2xx response's decoded {"error": ...} envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// Is maps the v1 API's stable status codes to the package sentinels.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrNotPrepared:
		return e.Status == http.StatusNotFound
	case ErrOutOfRange:
		return e.Status == http.StatusRequestedRangeNotSatisfiable
	case ErrIntractable:
		return e.Status == http.StatusUnprocessableEntity
	case ErrCursorInvalidated:
		return e.Status == http.StatusGone
	}
	return false
}

// Spec is the textual ranked-access request registered under a name;
// it mirrors the server's engine.Spec.
type Spec struct {
	// Query is the conjunctive query text, e.g. "Q(x, z) :- R(x, y), S(y, z)".
	Query string `json:"query"`
	// Order is a lexicographic order such as "x, z desc" (ignored when
	// SumBy is set).
	Order string `json:"order,omitempty"`
	// SumBy ranks by the sum of the named variables' values.
	SumBy []string `json:"sum_by,omitempty"`
	// FDs are unary functional dependencies "R: x -> y".
	FDs []string `json:"fds,omitempty"`
	// Shards ≥ 2 requests hash-partitioned scatter-gather execution.
	Shards int `json:"shards,omitempty"`
	// ShardBy optionally names the partition variable.
	ShardBy string `json:"shard_by,omitempty"`
}

// Options configures Dial.
type Options struct {
	// HTTPClient overrides the transport; http.DefaultClient when nil.
	HTTPClient *http.Client

	// RequestTimeout bounds one non-streaming request end to end,
	// retries and backoff sleeps included. 0 means
	// DefaultRequestTimeout; negative disables the deadline. Streaming
	// calls (Cursor.Stream) are exempt — cancel them via ctx.
	RequestTimeout time.Duration

	// MaxRetries is how many times a request the server shed with
	// 429/503 (or a GET that failed in transport) is retried with
	// capped exponential backoff and jitter, honoring the server's
	// Retry-After. 0 means DefaultMaxRetries; negative disables
	// retries.
	MaxRetries int

	// RetryBaseDelay and RetryMaxDelay shape the backoff; zero values
	// mean DefaultRetryBaseDelay and DefaultRetryMaxDelay.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
}

// Client talks to one server. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retry   retryPolicy
}

// Dial validates the base URL (e.g. "http://localhost:8080") and pings
// the server's /v1/stats endpoint to fail fast on an unreachable or
// foreign service. Pass a nil opts for defaults.
func Dial(ctx context.Context, base string, opts *Options) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", base, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http(s)", base)
	}
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      http.DefaultClient,
		timeout: DefaultRequestTimeout,
		retry:   resolvePolicy(opts),
	}
	if opts != nil {
		if opts.HTTPClient != nil {
			c.hc = opts.HTTPClient
		}
		if opts.RequestTimeout != 0 {
			c.timeout = opts.RequestTimeout
			if c.timeout < 0 {
				c.timeout = 0
			}
		}
	}
	if _, err := c.Stats(ctx); err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", base, err)
	}
	return c, nil
}

// do sends one JSON request and decodes a 2xx body into out (skipped
// when out is nil); non-2xx responses come back as *APIError.
//
// Requests the server sheds with 429/503 are retried with backoff (the
// server rejects those before processing, so writes are safe to
// resend); transport errors are retried for GETs only, where a
// duplicate cannot change state. Non-streaming requests run under the
// client's RequestTimeout; streaming requests (accept != "") are bound
// only by the caller's ctx.
func (c *Client) do(ctx context.Context, method, path string, in, out any, accept string) (*http.Response, error) {
	var raw []byte
	if in != nil {
		var err error
		raw, err = json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: encode request: %w", err)
		}
	}
	if accept == "" && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	for attempt := 0; ; attempt++ {
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(raw)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return nil, err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if sc, ok := trace.SpanContextOf(ctx); ok {
			req.Header.Set("traceparent", sc.Traceparent())
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			// The request may have reached the server; only a GET is
			// safe to replay blind.
			if method == http.MethodGet && attempt < c.retry.max && ctx.Err() == nil {
				if sleepCtx(ctx, c.retry.delay(attempt, nil)) == nil {
					continue
				}
			}
			return nil, err
		}
		if shouldRetryStatus(resp.StatusCode) && attempt < c.retry.max {
			d := c.retry.delay(attempt, resp)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if sleepCtx(ctx, d) == nil {
				continue
			}
			return nil, ctx.Err()
		}
		if resp.StatusCode/100 != 2 {
			defer resp.Body.Close()
			return nil, decodeAPIError(resp)
		}
		if accept != "" {
			// Streaming caller consumes and closes the body itself.
			return resp, nil
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return nil, fmt.Errorf("client: decode response: %w", err)
			}
		}
		return resp, nil
	}
}

// decodeAPIError turns a non-2xx response into an *APIError, falling
// back to the raw body when it is not the structured envelope.
func decodeAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var envelope struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(raw))
	if err := json.Unmarshal(raw, &envelope); err == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg}
}

// Stats mirrors GET /v1/stats — the full typed counter surface the
// server exports, field for field. A schema test on the server side
// keeps the two in lockstep.
type Stats struct {
	// Structure-cache and registry counters.
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	Version      uint64 `json:"version"`
	Tuples       int    `json:"tuples"`
	Prepared     int    `json:"prepared"`
	RegistryHits uint64 `json:"registry_hits"`
	Reprepares   uint64 `json:"reprepares"`
	OpenCursors  int    `json:"open_cursors"`
	// Snapshot counters: checkpoints written, restores applied, and
	// structures the last warm start rehydrated from a mapped snapshot.
	Checkpoints    uint64 `json:"snapshot_checkpoints"`
	Restores       uint64 `json:"snapshot_restores"`
	WarmStructures uint64 `json:"warm_structures"`
	// Write-path counters: mutation batches applied, and how stale
	// structures caught up — republished unchanged, advanced by delta
	// overlay, or forced to rebuild — plus background re-preprocesses
	// that swapped in.
	WALBatches    uint64 `json:"wal_batches"`
	DeltaSkips    uint64 `json:"delta_skips"`
	DeltaEpochs   uint64 `json:"delta_epochs"`
	DeltaRebuilds uint64 `json:"delta_rebuilds"`
	BGRebuilds    uint64 `json:"bg_rebuilds"`
	// WALErrors counts absorbed durable-WAL append failures; nonzero
	// means the disk under the server's WAL is unhealthy.
	WALErrors uint64 `json:"wal_errors"`
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
	// Degraded is true while the engine sheds writes to catch up.
	Degraded bool `json:"degraded"`
	// DeprecatedRequests counts requests answered through deprecated
	// legacy routes (the unversioned shims over /v1).
	DeprecatedRequests uint64 `json:"deprecated_requests"`
}

// Stats fetches the server's counters via GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	_, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st, "")
	return st, err
}

// Load appends rows to the named relation via POST /v1/instance/load
// and returns the count loaded.
func (c *Client) Load(ctx context.Context, relation string, rows [][]Value) (int, error) {
	in := struct {
		Relation string    `json:"relation"`
		Rows     [][]Value `json:"rows"`
	}{relation, rows}
	var out struct {
		Loaded int `json:"loaded"`
	}
	_, err := c.do(ctx, http.MethodPost, "/v1/instance/load", in, &out, "")
	return out.Loaded, err
}

// Write is one relation's rows in a batch mutation: rows to insert and
// rows to delete. Deletes of absent rows are idempotent no-ops.
type Write struct {
	Relation string    `json:"relation"`
	Insert   [][]Value `json:"insert,omitempty"`
	Delete   [][]Value `json:"delete,omitempty"`
}

// WriteResult reports the outcome of one batch mutation.
type WriteResult struct {
	// Version is the engine version the batch published.
	Version uint64 `json:"version"`
	// Inserted and Deleted count rows requested in the batch.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
}

// Write applies a batch of relational mutations atomically via POST
// /v1/write: the whole group is durably logged and published as one
// new version. Prepared queries over untouched relations keep serving
// without rebuilding; queries over written relations absorb the batch
// as a delta overlay when possible.
func (c *Client) Write(ctx context.Context, writes ...Write) (WriteResult, error) {
	in := struct {
		Writes []Write `json:"writes"`
	}{writes}
	var out WriteResult
	_, err := c.do(ctx, http.MethodPost, "/v1/write", in, &out, "")
	return out, err
}

// QueryInfo describes one server-side registration.
type QueryInfo struct {
	Name      string   `json:"name"`
	Gen       uint64   `json:"gen"`
	Query     string   `json:"query"`
	Order     string   `json:"order,omitempty"`
	SumBy     []string `json:"sum_by,omitempty"`
	FDs       []string `json:"fds,omitempty"`
	Mode      string   `json:"mode"`
	Tractable bool     `json:"tractable"`
	Verdict   string   `json:"verdict,omitempty"`
	Total     int64    `json:"total"`
	Version   uint64   `json:"version"`
	Shards    int      `json:"shards,omitempty"`
	ShardBy   string   `json:"shard_by,omitempty"`
	ShardNote string   `json:"shard_note,omitempty"`
}

// Prepared is a client-side handle to a named server registration.
type Prepared struct {
	c *Client
	// Name is the registered name all probes reference.
	Name string
	// Info is the registration snapshot from the last Register/Refresh.
	Info QueryInfo
}

// registerRequest mirrors the server's POST /v1/queries body.
type registerRequest struct {
	Name string `json:"name"`
	Spec
	Strict bool `json:"strict,omitempty"`
}

// Register registers the spec under name via POST /v1/queries. The
// server parses and builds it once; later probes reference the name
// only. Re-registering a name replaces its spec.
func (c *Client) Register(ctx context.Context, name string, s Spec) (*Prepared, error) {
	return c.register(ctx, name, s, false)
}

// RegisterStrict is Register that fails with ErrIntractable when the
// spec lands on the intractable side of the paper's dichotomy instead
// of silently materializing.
func (c *Client) RegisterStrict(ctx context.Context, name string, s Spec) (*Prepared, error) {
	return c.register(ctx, name, s, true)
}

func (c *Client) register(ctx context.Context, name string, s Spec, strict bool) (*Prepared, error) {
	p := &Prepared{c: c, Name: name}
	_, err := c.do(ctx, http.MethodPost, "/v1/queries", registerRequest{Name: name, Spec: s, Strict: strict}, &p.Info, "")
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Queries lists the server's registrations via GET /v1/queries.
func (c *Client) Queries(ctx context.Context) ([]QueryInfo, error) {
	var out struct {
		Queries []QueryInfo `json:"queries"`
	}
	_, err := c.do(ctx, http.MethodGet, "/v1/queries", nil, &out, "")
	return out.Queries, err
}

// Prepared returns a handle to an existing registration, fetching its
// current info; it fails with ErrNotPrepared when the name is unknown.
func (c *Client) Prepared(ctx context.Context, name string) (*Prepared, error) {
	p := &Prepared{c: c, Name: name}
	if err := p.Refresh(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// Evict removes a registration via DELETE /v1/queries/{name}.
func (c *Client) Evict(ctx context.Context, name string) error {
	_, err := c.do(ctx, http.MethodDelete, "/v1/queries/"+url.PathEscape(name), nil, nil, "")
	return err
}

// Refresh re-fetches the registration info (total, mode, version).
func (p *Prepared) Refresh(ctx context.Context) error {
	_, err := p.c.do(ctx, http.MethodGet, p.path(""), nil, &p.Info, "")
	return err
}

func (p *Prepared) path(suffix string) string {
	return "/v1/queries/" + url.PathEscape(p.Name) + suffix
}

// Answer is one probed index: the head tuple, or the server's
// per-index error string (e.g. "out of bound").
type Answer struct {
	K     int64   `json:"k"`
	Tuple []Value `json:"tuple,omitempty"`
	Err   string  `json:"error,omitempty"`
}

// Access probes a batch of global ranks by name. Per-index failures
// land in the returned answers without failing the batch.
func (p *Prepared) Access(ctx context.Context, ks ...int64) ([]Answer, error) {
	in := struct {
		Ks []int64 `json:"ks"`
	}{ks}
	var out struct {
		Answers []Answer `json:"answers"`
	}
	_, err := p.c.do(ctx, http.MethodPost, p.path("/access"), in, &out, "")
	return out.Answers, err
}

// Range fetches the head tuples of global ranks k0 ≤ k < k1 in one
// batched request.
func (p *Prepared) Range(ctx context.Context, k0, k1 int64) ([][]Value, error) {
	in := struct {
		K0 int64 `json:"k0"`
		K1 int64 `json:"k1"`
	}{k0, k1}
	var out struct {
		Tuples [][]Value `json:"tuples"`
	}
	_, err := p.c.do(ctx, http.MethodPost, p.path("/range"), in, &out, "")
	return out.Tuples, err
}

// Select answers the one-shot selection problem for rank k (no
// structure is built or cached server-side).
func (p *Prepared) Select(ctx context.Context, k int64) ([]Value, error) {
	in := struct {
		K int64 `json:"k"`
	}{k}
	var out struct {
		Tuple []Value `json:"tuple"`
	}
	_, err := p.c.do(ctx, http.MethodPost, p.path("/select"), in, &out, "")
	return out.Tuple, err
}

// Count returns |Q(I)| for the registered query.
func (p *Prepared) Count(ctx context.Context) (int64, error) {
	var out struct {
		Count int64 `json:"count"`
	}
	_, err := p.c.do(ctx, http.MethodPost, p.path("/count"), struct{}{}, &out, "")
	return out.Count, err
}

// Classification is the verdict of one of the paper's dichotomies.
type Classification struct {
	Tractable bool     `json:"tractable"`
	Bound     string   `json:"bound"`
	Verdict   string   `json:"verdict"`
	Trio      []string `json:"trio,omitempty"`
}

// Classify runs the named dichotomy problem ("direct-access-lex",
// "selection-lex", "direct-access-sum", "selection-sum"; empty means
// direct-access-lex) on the registered spec.
func (p *Prepared) Classify(ctx context.Context, problem string) (Classification, error) {
	in := struct {
		Problem string `json:"problem,omitempty"`
	}{problem}
	var out Classification
	_, err := p.c.do(ctx, http.MethodPost, p.path("/classify"), in, &out, "")
	return out, err
}
