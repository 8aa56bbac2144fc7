package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/server"
	"reachac/internal/workload"
)

// ldbcDegree is the mean out-degree of every workload's ldbc graph; 100k
// users give about 743k relationships.
const ldbcDegree = 8

// walSyncInterval is acserverd's default fsync cadence under -sync interval.
const walSyncInterval = 50 * time.Millisecond

// setupTimes splits one set-up into its phases.
type setupTimes struct {
	generate, load, share, engine time.Duration
}

func (t setupTimes) total() time.Duration { return t.generate + t.load + t.share + t.engine }

// stack is one set-up instance of a workload's system under test.
type stack struct {
	spec  workloadSpec
	seed  int64
	top   generate.Topology
	specs []workload.ResourceSpec
	// g is the generated graph the generators sample. For embedded stacks
	// it is the network's live graph; for HTTP stacks a private copy.
	g *graph.Graph
	// net is the network serving the workload. Over HTTP the server owns
	// it and closes it on shutdown.
	net *reachac.Network

	// HTTP-only: the data directory, the serving stack and two clients
	// over one connection pool, the second stamping trace headers.
	dir     string
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	handler *tracingHandler
	pool    *http.Transport
	plain   *client.Client
	traced  *client.Client
	// rules holds, per worker and resource, the rule IDs this worker's
	// shares returned, oldest first, so its revokes name real rules.
	rules [][][]string
}

// setUp builds a workload's system from scratch: generate the ldbc graph,
// load it, pre-share the resources and publish the engine snapshot.
func setUp(o options) (*stack, setupTimes, error) {
	var t setupTimes
	st := &stack{spec: o.spec, seed: o.seed}
	t0 := time.Now()
	top, err := generate.New("ldbc", generate.WithNodes(o.nodes),
		generate.WithDegree(ldbcDegree), generate.WithSeed(datasetSeed))
	if err != nil {
		return nil, t, err
	}
	g, err := generate.Build(top)
	if err != nil {
		return nil, t, err
	}
	st.top, st.g = top, g
	t1 := time.Now()
	t.generate = t1.Sub(t0)

	switch o.spec.path {
	case embedded:
		var opts []reachac.Option
		if o.spec.planner {
			opts = append(opts, reachac.WithPlanner(reachac.PlannerOptions{}))
		}
		st.net = reachac.FromGraph(g, opts...)
	case httpDurable:
		if err := os.MkdirAll(filepath.Join(o.dir, "data"), 0o755); err != nil {
			return nil, t, err
		}
		if st.dir, err = os.MkdirTemp(filepath.Join(o.dir, "data"), o.spec.name+"-"); err != nil {
			return nil, t, err
		}
		// The data directory sits on whatever disk holds the checkout, and
		// a shared disk's fsync latency swings tenfold from run to run.
		// acserverd's interval policy at its default cadence still appends
		// and fsyncs every write, but off the request path, so the run
		// measures the program's WAL path rather than the disk.
		st.net, err = reachac.Open(st.dir, reachac.WithEngine(reachac.Online),
			reachac.WithSyncInterval(walSyncInterval), reachac.WithCheckpointEvery(reachac.DefaultCheckpointEvery))
		if err != nil {
			os.RemoveAll(st.dir)
			return nil, t, err
		}
		if err := st.net.LoadTopology(top, reachac.DefaultLoadChunk); err != nil {
			st.close()
			return nil, t, err
		}
	}
	t2 := time.Now()
	t.load = t2.Sub(t1)

	st.specs = o.spec.scenario.Resources(g, o.spec.resources, datasetSeed+1)
	err = st.net.Batch(func(tx *reachac.Tx) error {
		for _, spec := range st.specs {
			if _, err := tx.Share(spec.Name, spec.Owner, spec.Paths...); err != nil {
				return fmt.Errorf("pre-sharing %s: %w", spec.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		st.close()
		return nil, t, err
	}
	t3 := time.Now()
	t.share = t3.Sub(t2)

	// UseEngine builds and publishes the snapshot, so the first read does
	// not pay for it.
	if err := st.net.UseEngine(reachac.Online); err != nil {
		st.close()
		return nil, t, err
	}
	if o.spec.path == httpDurable {
		if err := st.serve(o.workers); err != nil {
			st.close()
			return nil, t, err
		}
	}
	t.engine = time.Since(t3)
	st.rules = make([][][]string, o.workers)
	for w := range st.rules {
		st.rules[w] = make([][]string, len(st.specs))
	}
	return st, t, nil
}

// serve starts acserverd's handler with its default configuration on a
// loopback listener and connects clients limited to one connection per
// worker.
func (st *stack) serve(workers int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = server.New(st.net, server.Config{})
	st.handler = &tracingHandler{next: st.srv}
	st.hs = &http.Server{Handler: st.handler}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.hs.Serve(ln)
	}()
	st.pool = &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	addr := ln.Addr().String()
	if st.plain, err = client.New(addr, client.WithHTTPClient(
		&http.Client{Transport: st.pool, Timeout: 30 * time.Second})); err != nil {
		return err
	}
	st.traced, err = client.New(addr, client.WithHTTPClient(
		&http.Client{Transport: tracingTransport{base: st.pool}, Timeout: 30 * time.Second}))
	return err
}

// stopServing stops the listener and drains the server, which takes a
// final checkpoint and closes the network.
func (st *stack) stopServing() error {
	if st.hs == nil {
		return nil
	}
	err := st.hs.Close()
	<-st.served
	st.pool.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = errors.Join(err, st.srv.Shutdown(ctx))
	st.hs, st.srv, st.net = nil, nil, nil
	return err
}

// close releases everything the stack holds, including its data
// directory.
func (st *stack) close() error {
	err := st.stopServing()
	if st.dir != "" {
		if st.net != nil {
			err = errors.Join(err, st.net.Close())
		}
		err = errors.Join(err, os.RemoveAll(st.dir))
		st.dir = ""
	}
	st.net = nil
	return err
}

// name maps a generated node ID to its member name.
func name(id graph.NodeID) string { return generate.UserName(int(id)) }

// generators builds one deterministic operation generator per worker.
func (st *stack) generators(workers int) []*workload.Generator {
	gens := make([]*workload.Generator, workers)
	for w := range gens {
		cfg := st.spec.gen
		cfg.Resources = st.specs
		cfg.Worker, cfg.Workers = w, workers
		gens[w] = workload.NewGenerator(st.g, st.spec.scenario.Mix,
			st.spec.scenario.GenConfig(cfg), st.seed+int64(w)*7919)
	}
	return gens
}
