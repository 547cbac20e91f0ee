// Command serve runs the synthesis flow as an HTTP/JSON daemon: parse,
// analysis, synthesis and verification as bounded, cancellable jobs behind
// a content-addressed result cache.
//
// Usage:
//
//	serve [-addr HOST:PORT] [-workers N] [-queue N]
//	      [-cache-entries N] [-cache-bytes N] [-async-threshold N]
//	      [-job-timeout D] [-drain D] [-data-dir DIR]
//	      [-shed-cost N] [-shed-base D] [-shed-cap D]
//	      [-log-format text|json] [-pprof-addr HOST:PORT]
//	      [-trace-entries N] [-trace-bytes N]
//	      [-metrics FILE] [-trace-json FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// Endpoints (see internal/serve): POST /v1/parse, /v1/analyze,
// /v1/synthesize, /v1/verify; GET /v1/jobs/{id}, /v1/jobs/{id}/trace,
// /v1/jobs/{id}/events (SSE); DELETE /v1/jobs/{id}; GET /metrics (JSON, or
// Prometheus text via Accept: text/plain); GET /healthz; GET /readyz.
//
// The daemon logs structured records (log/slog) to stderr — text by
// default, JSON with -log-format json — each stamped with the request's
// trace id. -pprof-addr exposes net/http/pprof on a separate private
// listener; the public mux never serves /debug/pprof/.
//
// -data-dir makes the daemon durable: jobs are journaled (accepted jobs
// survive a crash and re-enqueue on restart; jobs that died mid-run are
// reported as interrupted) and cached results persist on disk across
// restarts. -shed-cost bounds the total in-flight admission cost; excess
// requests get 503 with a decorrelated-jitter Retry-After hint.
//
// The daemon prints "serve: listening on http://ADDR" once ready (use
// -addr 127.0.0.1:0 to pick a free port) and drains gracefully on SIGINT
// or SIGTERM: new requests are rejected, in-flight jobs get -drain time to
// finish, then outstanding jobs are canceled through their budgets.
//
// -metrics and -trace-json export the aggregated server registry on exit;
// usage errors exit 2, runtime errors exit 1 (shared cli conventions).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

func main() {
	cli.Exit("serve", run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run starts the daemon and blocks until a signal or a server error. ready,
// when non-nil, receives the bound listen address once the daemon accepts
// connections (used by the e2e tests; main passes nil and watches stdout).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8372", "listen address (use :0 for a free port)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "job worker-pool size")
	queue := fs.Int("queue", 64, "job queue depth; a full queue rejects with 503")
	cacheEntries := fs.Int("cache-entries", 256, "result-cache entry bound (negative disables the cache)")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "result-cache byte bound")
	asyncThreshold := fs.Int("async-threshold", 256, "transition count above which requests default to async job handles")
	jobTimeout := fs.Duration("job-timeout", 0, "wall-clock ceiling per job (0 = none)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	dataDir := fs.String("data-dir", "", "durability directory: job journal + disk result cache (empty = in-memory only)")
	shedCost := fs.Int64("shed-cost", 0, "in-flight admission-cost bound; past it requests shed with 503 + Retry-After (0 = 4×queue×2^20, negative disables)")
	shedBase := fs.Duration("shed-base", time.Second, "minimum Retry-After hint on shed responses")
	shedCap := fs.Duration("shed-cap", 30*time.Second, "maximum Retry-After hint on shed responses")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text or json")
	pprofAddr := fs.String("pprof-addr", "", "listen address for net/http/pprof on a separate private listener (empty = disabled)")
	traceEntries := fs.Int("trace-entries", 64, "per-job trace ring entry bound (negative disables trace retention)")
	traceBytes := fs.Int64("trace-bytes", 16<<20, "per-job trace ring byte bound")
	var ins cli.Instrumentation
	ins.AddFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(stderr, "serve: unexpected argument", fs.Arg(0))
		return cli.Usage{Err: errors.New("unexpected argument")}
	}
	var logHandler slog.Handler
	switch *logFormat {
	case "text":
		logHandler = slog.NewTextHandler(stderr, nil)
	case "json":
		logHandler = slog.NewJSONHandler(stderr, nil)
	default:
		fmt.Fprintf(stderr, "serve: unknown -log-format %q (want text or json)\n", *logFormat)
		return cli.Usage{Err: errors.New("unknown log format")}
	}
	if err := ins.Start(); err != nil {
		return err
	}
	// Same exit-path contract as the batch tools: artifacts export on every
	// exit, panics become typed runtime errors (status 1), see cmd/synth.
	defer cli.Recover(&err)
	defer ins.FinishTo(stdout, stderr, &err)

	srv, err := serve.New(serve.Config{
		Workers:        *workers,
		Queue:          *queue,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		AsyncThreshold: *asyncThreshold,
		JobTimeout:     *jobTimeout,
		DataDir:        *dataDir,
		ShedCost:       *shedCost,
		ShedBase:       *shedBase,
		ShedCap:        *shedCap,
		Logger:         slog.New(logHandler),
		TraceEntries:   *traceEntries,
		TraceBytes:     *traceBytes,
		Registry:       ins.Registry, // nil without -metrics/-trace-json: serve makes its own
	})
	if err != nil {
		return err
	}

	if *pprofAddr != "" {
		// A dedicated private listener: the profiling surface never shares a
		// mux (or a port) with the public API, so it cannot leak through it.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps := &http.Server{Handler: pmux}
		defer ps.Close()
		fmt.Fprintf(stdout, "serve: pprof on http://%s\n", pln.Addr())
		go ps.Serve(pln)
	}

	// Registered before the daemon announces itself, so a signal sent as
	// soon as it is listening drains it instead of killing it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serve: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case got := <-sig:
		fmt.Fprintf(stdout, "serve: %v, draining (deadline %v)\n", got, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Stop accepting and finish in-flight handlers first (they block on
		// their jobs, which the still-running worker pool completes), then
		// drain the queued async jobs.
		herr := hs.Shutdown(ctx)
		serr := srv.Shutdown(ctx)
		if herr != nil {
			return herr
		}
		if serr != nil {
			return fmt.Errorf("serve: drain deadline exceeded, outstanding jobs canceled: %w", serr)
		}
		fmt.Fprintln(stdout, "serve: drained")
		return nil
	}
}
