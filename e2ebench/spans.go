package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/faultfs"
	"rankedaccess/internal/order"
	"rankedaccess/internal/rpc"
)

// The benchmark's own tracing. Spans are recorded only in the traced
// run, only from the benchmark's files, and only around calls into the
// layers' public seams: the SDK call, the HTTP transport under it, the
// mounted serve handler, each shard node's RPC backend, and the WAL's
// filesystem. RARC listeners count bytes. Spans are kept in memory and
// analysed when the run ends.

// spanKind names the seam a span was recorded at.
type spanKind uint8

const (
	kClient     spanKind = iota // SDK call, recorded by the load loop
	kRoundTrip                  // http.RoundTripper under the SDK
	kServe                      // the mounted serve handler
	kNodePrep                   // rpc.Backend.Prepare on a shard node
	kNodeRank                   // rpc.Backend.Rank
	kNodeAccess                 // rpc.Backend.Access
	kNodeRange                  // rpc.Backend.Range
	kFSWrite                    // faultfs.File.Write under the WAL
	kFSSync                     // faultfs.File.Sync under the WAL
)

// opKind is the request type a client or serve span belongs to.
type opKind uint8

const (
	opOther opKind = iota
	opAccess
	opRange
	opWrite
	opRegister
)

type span struct {
	id, parent uint64
	start, end int64 // nanoseconds since the recorder's base
	kind       spanKind
	op         opKind
}

func (s span) dur() int64 { return s.end - s.start }

// recorder holds the spans and seam counters of one traced run.
// Counters run whenever the seams are installed; spans are recorded
// only while on is set, so traced and untraced chunks of the same run
// share the same code path apart from the recording itself.
type recorder struct {
	base time.Time
	on   atomic.Bool
	ids  atomic.Uint64

	mu    sync.Mutex
	spans []span

	walWriteBytes atomic.Int64
	walSyncs      atomic.Int64
	rpcBytes      atomic.Int64
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and clears the buffer.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// start opens a span when recording is on; the returned id is 0 when
// it is off, and end ignores a zero id.
func (r *recorder) start() (uint64, int64) {
	if r == nil || !r.on.Load() {
		return 0, 0
	}
	return r.newID(), r.now()
}

func (r *recorder) end(id, parent uint64, start int64, kind spanKind, op opKind) {
	if id == 0 {
		return
	}
	r.add(span{id: id, parent: parent, start: start, end: r.now(), kind: kind, op: op})
}

// clientSpan opens the span of one SDK call; the returned context
// carries its id to the transport, which links the server's span to it.
func (r *recorder) clientSpan(ctx context.Context) (context.Context, uint64, int64) {
	id, start := r.start()
	if id == 0 {
		return ctx, 0, 0
	}
	return withSpan(ctx, id), id, start
}

// The client span id travels to the transport in the request context.
type spanCtxKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

func spanOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanCtxKey{}).(uint64)
	return id
}

// tracedTransport is the RoundTripper handed to the SDK through
// client.Options.HTTPClient. It records the HTTP exchange under a
// client span and links the server's span to it with X-Request-ID.
type tracedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanOf(req.Context())
	if parent == 0 {
		return t.base.RoundTrip(req)
	}
	id, start := t.rec.newID(), t.rec.now()
	req = req.Clone(req.Context())
	req.Header.Set("X-Request-ID", strconv.FormatUint(id, 10))
	resp, err := t.base.RoundTrip(req)
	t.rec.add(span{id: id, parent: parent, start: start, end: t.rec.now(), kind: kRoundTrip})
	return resp, err
}

// tracedHandler wraps the mounted serve handler.
func tracedHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, start := rec.start()
		h.ServeHTTP(w, req)
		if id != 0 {
			parent, _ := strconv.ParseUint(req.Header.Get("X-Request-ID"), 10, 64)
			rec.end(id, parent, start, kServe, requestOp(req))
		}
	})
}

func requestOp(req *http.Request) opKind {
	p := req.URL.Path
	switch {
	case strings.HasSuffix(p, "/access"):
		return opAccess
	case strings.HasSuffix(p, "/range"):
		return opRange
	case p == "/v1/write":
		return opWrite
	case p == "/v1/queries" && req.Method == http.MethodPost:
		return opRegister
	}
	return opOther
}

// tracedBackend wraps a shard node's RPC backend.
type tracedBackend struct {
	rpc.Backend
	rec *recorder
}

func (b tracedBackend) Prepare(ctx context.Context, spec rpc.Spec) (*rpc.PrepareInfo, error) {
	id, start := b.rec.start()
	info, err := b.Backend.Prepare(ctx, spec)
	b.rec.end(id, 0, start, kNodePrep, opOther)
	return info, err
}

func (b tracedBackend) Rank(ctx context.Context, spec rpc.Spec, version uint64, a order.Answer) ([]int64, bool, error) {
	id, start := b.rec.start()
	ranks, exact, err := b.Backend.Rank(ctx, spec, version, a)
	b.rec.end(id, 0, start, kNodeRank, opOther)
	return ranks, exact, err
}

func (b tracedBackend) Access(ctx context.Context, spec rpc.Spec, version uint64, shard int, k int64) (order.Answer, error) {
	id, start := b.rec.start()
	a, err := b.Backend.Access(ctx, spec, version, shard, k)
	b.rec.end(id, 0, start, kNodeAccess, opOther)
	return a, err
}

func (b tracedBackend) Range(ctx context.Context, spec rpc.Spec, version uint64, shard int, k0, k1 int64) ([]order.Answer, error) {
	id, start := b.rec.start()
	as, err := b.Backend.Range(ctx, spec, version, shard, k0, k1)
	b.rec.end(id, 0, start, kNodeRange, opOther)
	return as, err
}

// tracedFS is the engine's filesystem: it counts and times the WAL's
// writes and fsyncs.
type tracedFS struct {
	faultfs.FS
	rec *recorder
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	fl, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: fl, rec: f.rec}, nil
}

func (f tracedFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	fl, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: fl, rec: f.rec}, nil
}

type tracedFile struct {
	faultfs.File
	rec *recorder
}

func (f *tracedFile) Write(p []byte) (int, error) {
	id, start := f.rec.start()
	n, err := f.File.Write(p)
	f.rec.walWriteBytes.Add(int64(n))
	f.rec.end(id, 0, start, kFSWrite, opOther)
	return n, err
}

func (f *tracedFile) Sync() error {
	id, start := f.rec.start()
	err := f.File.Sync()
	f.rec.walSyncs.Add(1)
	f.rec.end(id, 0, start, kFSSync, opOther)
	return err
}

// countingListener wraps a RARC listener and counts the bytes its
// connections carry in both directions.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
