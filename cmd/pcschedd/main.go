// Command pcschedd serves the power-constrained scheduling service over
// HTTP/JSON: POST /v1/solve, /v1/sweep, and /v1/compare accept inline trace
// JSON (the format pctrace gen emits) or named workload proxies and return
// LP bounds computed on a bounded worker pool behind a content-addressed
// schedule cache; GET /metrics and /healthz expose the service's counters.
//
// Usage:
//
//	pcschedd [-addr :8080] [-workers N] [-queue N] [-cache N]
//	         [-timeout 60s] [-max-timeout 5m] [-grace 30s] [-quiet]
//	         [-slo-latency 2s] [-flight-slots 256] [-flight-dir DIR]
//
// The daemon prints the bound address on startup ("-addr 127.0.0.1:0"
// picks a free port — useful for harnesses) and shuts down gracefully on
// SIGINT/SIGTERM: in-flight solves complete and respond, new work gets
// 503, and the process exits once drained or the grace period lapses.
// SIGQUIT dumps the flight recorder (DESIGN.md §16) as one JSON document
// to stderr without stopping the daemon.
//
// PCSCHEDD_FAULTS arms the deterministic fault-injection registry at
// startup ("seed=7,lp-stall=1.0,lp-nan=0.25") — test harnesses only; the
// daemon logs a loud warning when armed.
//
// Capacity is static: -workers solves run at once, -queue more wait, and
// any request beyond that is answered 429 with a Retry-After hint (the
// queue ahead times the recent gap between solve completions). Under an
// LP failure or stall a solve falls back through the degradation ladder
// (DESIGN.md §10) and answers 200 degraded instead of failing.
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
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"powercap/internal/faultinject"
	"powercap/internal/service"
	"powercap/internal/slo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pcschedd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers    = fs.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 0, "admission queue depth beyond busy workers (0 = default 64)")
		cacheSize  = fs.Int("cache", 0, "schedule cache capacity in entries (0 = default 256)")
		timeout    = fs.Duration("timeout", 0, "default per-request solve deadline (0 = 60s)")
		maxTimeout = fs.Duration("max-timeout", 0, "upper clamp on client-supplied deadlines (0 = 5m)")
		grace      = fs.Duration("grace", 30*time.Second, "drain period for in-flight solves on shutdown")
		quiet      = fs.Bool("quiet", false, "suppress per-request log lines")
		sloLatency = fs.Duration("slo-latency", 0, "latency SLO threshold: requests slower than this burn the latency objective (0 = 2s)")
		flightN    = fs.Int("flight-slots", 0, "flight recorder ring capacity, rounded up to a power of two (0 = 256)")
		flightDir  = fs.String("flight-dir", "", "directory for automatic flight-recorder snapshots on panic/breaker-open (empty = os.TempDir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Structured logging: one slog text line per event, every request line
	// carrying its request_id (also echoed as X-Request-Id).
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	reqLog := logger
	if *quiet {
		reqLog = nil
	}
	// PCSCHEDD_FAULTS arms deterministic fault injection before the service
	// exists, so the very first solve sees the configured fault pattern.
	// Strictly a harness hook — a production daemon never sets it.
	if spec := os.Getenv("PCSCHEDD_FAULTS"); spec != "" {
		seed, rates, err := parseFaults(spec)
		if err != nil {
			return fmt.Errorf("PCSCHEDD_FAULTS: %w", err)
		}
		faultinject.Configure(seed, rates)
		logger.Warn("FAULT INJECTION ARMED — test harness mode", "spec", spec)
	}

	svc := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheSize:         *cacheSize,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		Log:               reqLog,
		SLO:               slo.Config{LatencyThreshold: *sloLatency},
		FlightSlots:       *flightN,
		FlightSnapshotDir: *flightDir,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The harness-parseable startup line: the one place the actual port
	// (meaningful with -addr ...:0) is reported.
	fmt.Fprintf(stdout, "pcschedd listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: svc}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// SIGQUIT dumps the flight recorder to stderr and keeps serving —
	// signal.Notify overrides the Go runtime's kill-with-stacks default, so
	// an operator can grab forensics from a live daemon without downtime.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	defer signal.Stop(quitc)
	go func() {
		for range quitc {
			logger.Info("SIGQUIT: dumping flight recorder to stderr")
			if err := svc.Flight().WriteJSON(stderr, 0, "sigquit"); err != nil {
				logger.Warn("flight dump failed", "err", err)
			}
			fmt.Fprintln(stderr)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutdown: draining in-flight solves", "grace", grace.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain first so in-flight solves finish and respond while the
	// listener still accepts their connections; Shutdown then closes the
	// listener and waits for the last responses to flush.
	if err := svc.Drain(drainCtx); err != nil {
		logger.Warn("shutdown: drain incomplete", "err", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-errc // Serve has returned http.ErrServerClosed
	logger.Info("shutdown: done")
	return nil
}

// parseFaults parses the PCSCHEDD_FAULTS spec: comma-separated key=value
// pairs where the key is "seed" or a fault class name (lp-nan, lp-stall,
// cache-error, worker-panic, slow-solve) and the value is a probability in
// [0,1] (uint64 for seed). Example: "seed=7,lp-stall=1.0,lp-nan=0.25".
func parseFaults(spec string) (uint64, map[faultinject.Class]float64, error) {
	var seed uint64 = 1
	rates := make(map[faultinject.Class]float64)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return 0, nil, fmt.Errorf("bad pair %q (want key=value)", part)
		}
		if k == "seed" {
			s, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("bad seed %q: %w", v, err)
			}
			seed = s
			continue
		}
		var cls faultinject.Class
		found := false
		for _, c := range faultinject.Classes() {
			if c.String() == k {
				cls, found = c, true
				break
			}
		}
		if !found {
			return 0, nil, fmt.Errorf("unknown fault class %q", k)
		}
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 || p > 1 {
			return 0, nil, fmt.Errorf("bad probability %q for %s", v, k)
		}
		rates[cls] = p
	}
	if len(rates) == 0 {
		return 0, nil, fmt.Errorf("no fault classes in spec %q", spec)
	}
	return seed, rates, nil
}
