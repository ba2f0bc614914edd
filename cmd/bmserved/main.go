// Command bmserved serves simulations over HTTP: a bounded sweep queue
// and worker pool, a content-addressed result store every cell resolves
// against, per-cell SSE progress and Prometheus metrics. SIGINT/SIGTERM
// triggers a graceful drain — queued and running sweeps finish (up to
// -drain-timeout), new submissions get 503.
//
// The server runs in one of three modes:
//
//   - default: a self-contained node; sweep cells simulate in-process.
//   - -coordinator: additionally serves the cluster control plane under
//     /cluster/v1 and hands sweep cells to joined workers from one FIFO
//     queue, oldest cell to the first worker that pulls. With no workers
//     joined, cells wait for one.
//   - -worker -join URL: a headless cell runner; joins the coordinator at
//     URL, long-polls for cells, simulates them and reports the bytes.
//     No public API is served and no store is kept in this mode: the
//     coordinator answers stored cells before it dispatches any.
//
// Every failure response uses the uniform v1 error envelope
// {"error":{"code","message","details"}}; see internal/service.
//
// API (see internal/service):
//
//	POST /v1/sweeps                submit {"mixes":["Q1"],"schemes":["bimodal"],...} or {"specs":[...]}
//	GET  /v1/sweeps                list sweeps (cursor pagination: ?limit=&cursor=&state=)
//	GET  /v1/sweeps/{id}           status + merged result when completed (sweep hash as ETag)
//	GET  /v1/sweeps/{id}/events    SSE merged progress (cell origins: run|warm|store)
//	GET  /v1/specs/{hash}          canonical spec JSON for a registered hash
//	GET  /v1/specs/{hash}/result   one cell's result bytes (strong ETag)
//	GET  /metrics                  Prometheus text format
//	GET  /healthz                  liveness probe
//	GET  /debug/pprof/             live CPU/heap/goroutine profiles (net/http/pprof)
//
// Examples:
//
//	bmserved -addr :8080 -jobs 2 -queue 64 -job-timeout 10m
//	bmserved -addr :8080 -coordinator -store-dir /var/lib/bimodal/results
//	bmserved -worker -join http://coord:8080 -slots 8
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=30
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bimodal/internal/cluster"
	"bimodal/internal/service"
	"bimodal/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		queueDepth   = flag.Int("queue", 64, "max queued (not yet running) sweeps; overflow is rejected with 429 + Retry-After")
		jobs         = flag.Int("jobs", 2, "sweeps executed concurrently")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-sweep wall-clock cap (0 = none)")
		maxSweep     = flag.Int("max-sweep-cells", 10000, "max cells per sweep (-1 = unlimited)")
		retryAfter   = flag.Duration("retry-after", time.Second, "back-off hint attached to 429 rejections")
		storeDir     = flag.String("store-dir", "", "server: directory for the content-addressed result store (empty = unbounded in-memory)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain may take before in-flight sweeps are cancelled")

		coordinator = flag.Bool("coordinator", false, "serve the cluster control plane and dispatch sweep cells to joined workers")
		workerTTL   = flag.Duration("worker-ttl", 15*time.Second, "coordinator: silence window after which a worker is declared dead and its cells requeued")
		fanout      = flag.Int("sweep-fanout", 0, "sweep cells resolved concurrently (0 = NumCPU; raise in coordinator mode to saturate workers)")

		worker = flag.Bool("worker", false, "run as a cluster worker instead of serving the API")
		join   = flag.String("join", "", "worker: coordinator base URL to join (required with -worker)")
		slots  = flag.Int("slots", 0, "worker: concurrent cells (0 = GOMAXPROCS)")
		name   = flag.String("name", "", "worker: display name in cluster introspection")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *worker {
		if *join == "" {
			fmt.Fprintln(os.Stderr, "bmserved: -worker requires -join URL")
			os.Exit(1)
		}
		w := &cluster.Worker{
			Coordinator: *join,
			Name:        *name,
			Slots:       *slots,
		}
		fmt.Fprintf(os.Stderr, "bmserved: worker joining %s\n", *join)
		if err := w.Serve(ctx); err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "bmserved: worker:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "bmserved: worker stopped")
		return
	}

	st, err := openStore(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmserved:", err)
		os.Exit(1)
	}
	var coord *cluster.Coordinator
	if *coordinator {
		coord = cluster.New(cluster.Config{TTL: *workerTTL})
		defer coord.Close()
	}
	srv := service.New(service.Config{
		QueueDepth:    *queueDepth,
		Workers:       *jobs,
		JobTimeout:    *jobTimeout,
		MaxSweepCells: *maxSweep,
		SweepFanout:   *fanout,
		RetryAfter:    *retryAfter,
		Store:         st,
		Dispatcher:    dispatcher(coord),
	})
	// The profiling endpoints ride on the API mux so a running server can
	// always be profiled (go tool pprof .../debug/pprof/profile). Explicit
	// registration instead of the package's init() side effect on
	// http.DefaultServeMux, which this server does not use.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if coord != nil {
		mux.Handle("/cluster/", coord.Handler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Addr: *addr, Handler: mux}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	mode := "standalone"
	if coord != nil {
		mode = "coordinator"
	}
	fmt.Fprintf(os.Stderr, "bmserved: listening on %s (%s, %d workers, queue %d)\n", *addr, mode, *jobs, *queueDepth)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "bmserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "bmserved: draining (up to %s)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(dctx)
	hs.Shutdown(dctx)
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "bmserved: drain:", drainErr)
		os.Exit(1)
	}
	if errors.Is(drainErr, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "bmserved: drain timed out; in-flight sweeps were cancelled")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "bmserved: drained cleanly")
}

// openStore selects the server's content-addressed result store: an
// on-disk one, which outlives a restart, or a per-process in-memory one.
func openStore(dir string) (store.Store, error) {
	if dir == "" {
		return store.NewMem(), nil
	}
	return store.NewDisk(dir)
}

// dispatcher avoids a typed-nil Dispatcher interface when not in
// coordinator mode.
func dispatcher(c *cluster.Coordinator) service.Dispatcher {
	if c == nil {
		return nil
	}
	return c
}
