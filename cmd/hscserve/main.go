// Command hscserve exposes the simulation job engine as an HTTP/JSON
// service: submit canonical job specs or whole sweeps, poll status,
// and fetch canonical results, with every completed run memoized in
// the content-addressed cache. Processes that point -cache at one
// directory share results: each cache write is a temp file plus
// rename, so a result computed by any of them is a disk hit for all.
//
// Usage:
//
//	hscserve [-addr :8080] [-workers GOMAXPROCS] [-queue 256] [-cache dir]
//	         [-cache-entries 4096] [-timeout 0] [-drain 1m]
//
// API:
//
//	POST /jobs                submit a Spec (JSON); 202 accepted,
//	                          200 done (cache hit), 413 oversize,
//	                          429 queue full. ?wait=1 blocks.
//	GET  /jobs/{hash}         job status (cache-backed after retirement)
//	GET  /jobs/{hash}/result  canonical result JSON
//	POST /sweeps              submit a SweepSpec; streams NDJSON
//	                          per-cell results in expansion order;
//	                          re-POST to resume a lost stream
//	GET  /metrics             engine + cache counters (plain text)
//	GET  /healthz             liveness
//
// Example:
//
//	hscserve -addr 127.0.0.1:8081 -cache /var/tmp/hscsim-cache &
//	hscsweep -server http://127.0.0.1:8081 -bench tq
//
// On SIGINT/SIGTERM the server stops accepting jobs, cancels the
// queue, lets in-flight simulations finish (bounded by -drain), and
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hscsim/internal/engine"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
	queue := flag.Int("queue", 256, "max queued jobs before 429")
	cacheDir := flag.String("cache", "", "on-disk result cache directory (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 0, "max in-memory cache entries (0 = 4096)")
	timeout := flag.Duration("timeout", 0, "per-job execution timeout (0 = none)")
	drain := flag.Duration("drain", time.Minute, "max wait for in-flight jobs on shutdown")
	flag.Parse()

	cache, err := engine.NewCache(*cacheEntries, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hscserve:", err)
		os.Exit(1)
	}
	eng := engine.New(engine.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Cache:      cache,
		JobTimeout: *timeout,
	})

	srv := &http.Server{Addr: *addr, Handler: engine.NewServer(eng)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "hscserve: listening on %s (workers=%d queue=%d cache=%q)\n",
		*addr, *workers, *queue, *cacheDir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "hscserve:", err)
			os.Exit(1)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "hscserve: %v, draining (in-flight jobs finish, queue is cancelled)\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := eng.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "hscserve: drain:", err)
		}
		_ = srv.Shutdown(ctx)
		st := eng.Stats()
		fmt.Fprintf(os.Stderr, "hscserve: done=%d cached=%d failed=%d canceled=%d\n",
			st.Done, st.CacheHits, st.Failed, st.Canceled)
	}
}
