// Command nwhyd is the NWHy-Go hypergraph query daemon: it loads datasets
// into the concurrency-safe serving core (internal/server) and answers the
// full per-query surface — s-line construction, s-connected components,
// s-distances and paths, centralities, toplexes, statistics — over stdlib
// HTTP, with admission control, an s-line result cache, and graceful drain
// on SIGTERM. Datasets are mutable in place: POST /mutate stages hyperedge
// insertions and removals through the delta overlay (committed per the
// -compact-every policy), POST /compact flushes staged operations into a
// fresh snapshot on demand, and every /scc is answered by a maintained
// union-find view: once per epoch, absorbing insert-only commits.
//
// Usage:
//
//	nwhyd -addr :8080 -data ./snapshots            # warm-start a directory
//	nwhyd -dataset dblp=dblp.nwhyb web.mtx         # name=path and positional
//	nwhyd -preset dblp-mini -scale 0.5             # built-in generator preset
//	nwhyd -data ./snapshots -compact-every 64      # batch mutations 64 ops/commit
//
// Query endpoints (GET, JSON): /healthz, /metrics, /datasets, /stats,
// /toplexes, /slinegraph, /scc, /sdistance, /spath, /centrality.
// Mutation endpoints (POST, JSON): /mutate, /compact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nwhy"
	"nwhy/internal/gen"
	"nwhy/internal/server"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so stalled half-open requests cannot pin connections.
const readHeaderTimeout = 5 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole daemon, parameterized for tests: ctx cancellation (the
// signal context in main) triggers graceful drain, and the actual listen
// address is printed to stdout before serving so callers may pass ":0".
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nwhyd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		dataDir    = fs.String("data", "", "directory of .nwhyb/.mtx files to warm-start")
		presetName = fs.String("preset", "", "also serve a generator preset")
		scale      = fs.Float64("scale", 1.0, "preset scale factor")
		threads    = fs.Int("threads", 0, "engine worker count (0: GOMAXPROCS)")
		inflight   = fs.Int("inflight", 0, "max concurrently executing queries (0: 2x workers)")
		queue      = fs.Int("queue", 0, "max queries waiting for a slot (0: 4x inflight)")
		queueWait  = fs.Duration("queue-wait", 2*time.Second, "max time a query waits for a slot")
		cacheSize  = fs.Int("cache", 64, "s-line result cache entries")
		compactN   = fs.Int("compact-every", 1, "staged mutation ops per dataset before auto-compaction (1: commit every request)")
		drain      = fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight queries on shutdown")
	)
	var named []string
	fs.Func("dataset", "load a dataset as name=path (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path, got %q", v)
		}
		named = append(named, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	eng := nwhy.NewEngine(*threads)
	reg := server.NewRegistry()
	if *dataDir != "" {
		names, err := reg.WarmStart(ctx, eng.WithContext(ctx), *dataDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "warm-started %d dataset(s) from %s: %s\n", len(names), *dataDir, strings.Join(names, ", "))
	}
	for _, nv := range named {
		name, path, _ := strings.Cut(nv, "=")
		g, err := nwhy.LoadFile(path, nwhy.LoadOptions{Engine: eng})
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		reg.Add(name, g, path)
	}
	for _, path := range fs.Args() {
		g, err := nwhy.LoadFile(path, nwhy.LoadOptions{Engine: eng})
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		reg.Add(name, g, path)
	}
	if *presetName != "" {
		p, err := gen.ByName(*presetName)
		if err != nil {
			return err
		}
		reg.Add(p.Name, nwhy.Wrap(p.Build(*scale)).WithEngine(eng), "preset")
	}
	if reg.Len() == 0 {
		return errors.New("no datasets: pass -data, -dataset, -preset, or file arguments")
	}

	srv, err := server.New(server.Config{
		Engine:       eng,
		MaxInFlight:  *inflight,
		MaxQueue:     *queue,
		QueueWait:    *queueWait,
		CacheEntries: *cacheSize,
		CompactEvery: *compactN,
	}, reg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "nwhyd listening on %s (%d dataset(s), %d worker(s))\n",
		ln.Addr(), reg.Len(), eng.NumWorkers())

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	// Graceful drain: when the signal context fires, stop accepting and give
	// in-flight queries until the drain timeout. AfterFunc runs the drain
	// off the serve loop without a hand-rolled goroutine, and WithoutCancel
	// keeps the already-fired signal context from zeroing the budget.
	drained := make(chan struct{})
	stopDrain := context.AfterFunc(ctx, func() {
		defer close(drained)
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drain)
		defer cancel()
		_ = hs.Shutdown(sctx)
	})
	defer stopDrain()

	err = hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) && ctx.Err() != nil {
		<-drained
		fmt.Fprintln(stdout, "nwhyd drained, bye")
		return nil
	}
	return err
}
