// Command fsamd is the long-running FSAM analysis service: an HTTP/JSON
// daemon over the staged pipeline with a content-addressed result cache,
// admission control, and Prometheus-text metrics.
//
// Usage:
//
//	fsamd [flags]
//
//	-addr ADDR         listen address (default 127.0.0.1:8077; port 0
//	                   picks a free port, reported on stdout)
//	-workers N         concurrent pipeline runs (default GOMAXPROCS)
//	-queue N           admission queue depth beyond the workers (default 64)
//	-cachemb N         result-cache budget in MB (default 256)
//	-cacheentries N    result-cache entry bound (default 128)
//	-deadline D        default per-request analysis deadline (default 30s)
//	-maxdeadline D     cap on requested deadlines (default 5m)
//	-grace D           drain grace period after SIGTERM/SIGINT (default 30s)
//	-quiet             suppress per-request logs
//
// Endpoints: POST /v1/analyze, GET /v1/pointsto, /v1/races, /v1/leaks,
// /healthz (liveness, always 200 while the process serves), /readyz
// (readiness, 503 while draining or saturated), /metrics. See README
// "Running fsamd" for a curl walkthrough.
//
// On SIGTERM or SIGINT the daemon stops accepting analyze requests (503
// with a Retry-After hint), flips /readyz to draining, finishes in-flight
// requests, and exits 0; if the grace period expires first it exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/exitcode"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind a testable seam: it returns the process exit code
// instead of calling os.Exit, and reports the bound address on stdout so
// callers (tests, CI scripts) can use port 0.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsamd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8077", "listen address (port 0 picks a free port)")
		workers  = fs.Int("workers", 0, "concurrent pipeline runs (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 64, "admission queue depth beyond the workers")
		cacheMB  = fs.Int64("cachemb", 256, "result-cache budget in MB")
		cacheEnt = fs.Int("cacheentries", 128, "result-cache entry bound")
		deadline = fs.Duration("deadline", 30*time.Second, "default per-request analysis deadline")
		maxDL    = fs.Duration("maxdeadline", 5*time.Minute, "cap on requested deadlines")
		grace    = fs.Duration("grace", 30*time.Second, "drain grace period on SIGTERM/SIGINT")
		quiet    = fs.Bool("quiet", false, "suppress per-request logs")
	)
	if err := fs.Parse(args); err != nil {
		return exitcode.Usage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "fsamd: unexpected arguments")
		return exitcode.Usage
	}

	logger := log.New(stderr, "fsamd: ", log.LstdFlags|log.Lmsgprefix)
	reqLog := logger
	if *quiet {
		reqLog = log.New(io.Discard, "", 0)
	}
	svc := server.New(server.Options{
		Workers:         *workers,
		Queue:           *queue,
		CacheBytes:      *cacheMB << 20,
		CacheEntries:    *cacheEnt,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDL,
		Log:             reqLog,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "fsamd:", err)
		return exitcode.Failure
	}
	// The bound address goes to stdout (not the log) so scripts using
	// port 0 can scrape it reliably.
	fmt.Fprintf(stdout, "fsamd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "fsamd:", err)
		return exitcode.Failure
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining (grace %s)", *grace)
	svc.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			logger.Printf("grace period expired with requests in flight")
		} else {
			logger.Printf("shutdown: %v", err)
		}
		return exitcode.Failure
	}
	logger.Printf("drained cleanly")
	return exitcode.OK
}
