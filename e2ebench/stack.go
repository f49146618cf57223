package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"rankedaccess/client"
	"rankedaccess/internal/cluster"
	"rankedaccess/internal/database"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/faultfs"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/serve"
)

// stack is one booted serving stack: the serving engine behind the
// default serve handler on a loopback listener, the SDK client with
// the registered query, and for the cluster workload the shard nodes
// and the coordinator the serving engine delegates to.
type stack struct {
	e       *engine.Engine // the engine the HTTP API serves (coordinator-mode on cluster_read)
	handler http.Handler   // the mounted serve handler, unwrapped
	srv     *http.Server
	served  chan struct{} // closed when srv.Serve returns
	tr      *http.Transport
	cl      *client.Client
	pq      *client.Prepared
	total   int64

	coord     *cluster.Coordinator
	nodes     []*engine.Engine
	nodeAddrs []string
	rsrvs     []*rpc.Server
	rpcDone   sync.WaitGroup
	dir       string // WAL directory (read_hot_write)
}

// boot brings up the workload's stack over the given instance(s) and
// returns it with its set-up time: from the instance being handed to
// the system until the registered query answered its first access.
// nodeIns holds one instance per shard node (cluster_read); in is the
// single node's instance otherwise. rec, when non-nil, installs the
// traced seams.
func boot(w workloadDef, in *database.Instance, nodeIns []*database.Instance, dir string, rec *recorder) (*stack, time.Duration, error) {
	s := &stack{dir: dir}
	start := time.Now()
	if err := s.bootEngine(w, in, nodeIns, rec); err != nil {
		s.close()
		return nil, 0, err
	}
	s.handler = serve.NewHandlerWith(s.e, serve.Config{})
	h := s.handler
	if rec != nil {
		h = tracedHandler(rec, h)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, 0, err
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(lis) // returns ErrServerClosed on close
	}()

	s.tr = &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     clientConns,
		MaxIdleConns:        clientConns,
		MaxIdleConnsPerHost: clientConns,
		IdleConnTimeout:     time.Minute,
	}
	var rt http.RoundTripper = s.tr
	if rec != nil {
		rt = &tracedTransport{base: s.tr, rec: rec}
	}
	ctx := context.Background()
	s.cl, err = client.Dial(ctx, "http://"+lis.Addr().String(), &client.Options{
		HTTPClient:     &http.Client{Transport: rt},
		RequestTimeout: 30 * time.Second,
		MaxRetries:     -1, // a 429 or 503 is a failure, never hidden by a retry
	})
	if err != nil {
		s.close()
		return nil, 0, err
	}
	cctx, cid, cstart := rec.clientSpan(ctx)
	s.pq, err = s.cl.Register(cctx, queryName, client.Spec{Query: queryText, Order: orderText})
	rec.end(cid, 0, cstart, kClient, opRegister)
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("register: %w", err)
	}
	s.total = s.pq.Info.Total
	if s.total <= 0 {
		s.close()
		return nil, 0, fmt.Errorf("registered query has no answers")
	}
	ans, err := s.pq.Access(ctx, 0)
	if err != nil || len(ans) != 1 || ans[0].Err != "" {
		s.close()
		return nil, 0, fmt.Errorf("first access: %v %v", err, ans)
	}
	return s, time.Since(start), nil
}

// bootEngine builds the serving engine as the serve command would for
// the workload's role: a plain engine, a WAL-attached engine loaded the
// way a -data load is, or shard nodes behind RARC plus a coordinator.
func (s *stack) bootEngine(w workloadDef, in *database.Instance, nodeIns []*database.Instance, rec *recorder) error {
	switch {
	case w.nodes > 0:
		return s.bootCluster(w, nodeIns, rec)
	case w.wal:
		opts := engine.Options{}
		if rec != nil {
			opts.FS = tracedFS{FS: faultfs.OS(), rec: rec}
		}
		// The WAL is created inside the directory, so it must exist.
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return err
		}
		e, _, err := engine.Open(s.dir, opts)
		if err != nil {
			return err
		}
		s.e = e
		e.Mutate(func(dst *database.Instance) {
			for _, name := range in.Names() {
				dst.SetRelation(name, in.Relation(name))
			}
		})
		return nil
	default:
		s.e = engine.New(in, engine.Options{})
		return nil
	}
}

func (s *stack) bootCluster(w workloadDef, nodeIns []*database.Instance, rec *recorder) error {
	cfg := cluster.Config{Shards: w.p}
	for i := 0; i < w.nodes; i++ {
		e := engine.New(nodeIns[i], engine.Options{})
		s.nodes = append(s.nodes, e)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		var b rpc.Backend = cluster.NewNode(e)
		if rec != nil {
			b = tracedBackend{Backend: b, rec: rec}
			lis = countingListener{Listener: lis, n: &rec.rpcBytes}
		}
		srv := rpc.NewServer(b)
		s.rsrvs = append(s.rsrvs, srv)
		s.rpcDone.Add(1)
		go func() {
			defer s.rpcDone.Done()
			_ = srv.Serve(lis) // returns nil once Close stops it
		}()
		addr := lis.Addr().String()
		s.nodeAddrs = append(s.nodeAddrs, addr)
		cfg.Nodes = append(cfg.Nodes, cluster.NodeConfig{Addr: addr, Shards: w.placement[i]})
	}
	// Round-trip through the config parser, exactly as -cluster does.
	raw, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	parsed, err := cluster.Parse(raw)
	if err != nil {
		return err
	}
	s.coord = cluster.NewCoordinator(parsed, rpc.Options{})
	s.e = engine.New(database.NewInstance(), engine.Options{Remote: s.coord})
	return nil
}

// close tears the stack down and waits for its goroutines.
func (s *stack) close() {
	if s.srv != nil {
		_ = s.srv.Close()
		<-s.served
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, r := range s.rsrvs {
		_ = r.Close()
	}
	s.rpcDone.Wait()
	if s.e != nil {
		s.e.Quiesce()
		_ = s.e.Close() // after the run, a close error changes nothing reported
	}
	for _, e := range s.nodes {
		e.Quiesce()
		_ = e.Close()
	}
}
