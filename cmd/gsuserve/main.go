// Command gsuserve is the performability-as-a-service daemon: it answers
// Y(φ) curve, optimal-duration, and uncertainty-propagation queries over
// HTTP, built for sustained load — identical concurrent queries coalesce
// onto one solver run, answers are cached process-wide with size and TTL
// bounds, saturation sheds new work with 429 + Retry-After instead of
// piling it up, and SIGTERM drains every in-flight request before exit
// (docs/SERVING.md).
//
// Usage:
//
//	gsuserve [-addr 127.0.0.1:8080] [-route-timeout 30s] [-workers 2]
//	         [-max-concurrent 4] [-queue 8] [-retry-after 1s]
//	         [-cache-capacity 512] [-cache-ttl 5m] [-cache-shards 8]
//	         [-drain-timeout 30s] [-log json|text|off]
//	         [-trace-sample 0.01] [-trace-ring 64] [-pprof host:port]
//	gsuserve -loadgen -target http://host:port [-n 200] [-distinct 4]
//	         [-seed 1] [-concurrency 8]
//
// Routes: POST/GET /v1/curve, /v1/optimize, /v1/propagate (JSON);
// /healthz, /readyz, /metrics (Prometheus text); GET /debug/traces
// (sampled request traces, docs/OBSERVABILITY.md).
//
// All daemon output is structured logging (stdlib log/slog) on stderr:
// one access record per request carrying trace_id/route/status plus
// lifecycle events, machine-parseable as JSON by default. -log text is
// for humans at a terminal; -log off silences everything.
//
// The -loadgen mode replays a deterministic generated load script
// against a running daemon and prints the aggregate; it exits nonzero if
// any request failed at the transport level or returned a 5xx, which is
// what the CI smoke gate keys on.
//
// Exit codes: 0 clean serve/load run; 1 usage, listen, or load failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"guardedop/internal/obs"
	"guardedop/internal/obs/pprofutil"
	"guardedop/internal/serve"
)

// logger is the daemon's structured logger; run() reconfigures it from
// the -log flag before any lifecycle event is emitted.
var logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))

// announce reports the bound listen address; a package variable so tests
// can capture the dynamically chosen port of -addr host:0.
var announce = func(addr string) {
	logger.Info("listening", "addr", addr)
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:]))
}

// newLogger builds the daemon logger for one -log mode; the boolean is
// false for an unknown mode.
func newLogger(mode string) (*slog.Logger, bool) {
	switch mode {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), true
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), true
	case "off":
		return slog.New(slog.NewTextHandler(io.Discard, nil)), true
	default:
		return nil, false
	}
}

// run is the testable main: ctx plays the role of the process lifetime
// (main hands it the signal-bound context's parent; tests cancel it to
// simulate SIGTERM).
func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("gsuserve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free one)")
		routeTimeout = fs.Duration("route-timeout", 30*time.Second, "per-request solve budget; timeout_ms can tighten it")
		workers      = fs.Int("workers", 2, "solver workers per request")
		maxConc      = fs.Int("max-concurrent", 4, "solves running at once before new work queues")
		queue        = fs.Int("queue", 8, "admitted requests that may wait for a slot; beyond this, shed")
		retryAfter   = fs.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
		cacheCap     = fs.Int("cache-capacity", 512, "response cache entries")
		cacheTTL     = fs.Duration("cache-ttl", 5*time.Minute, "response cache entry lifetime")
		cacheShards  = fs.Int("cache-shards", 8, "cache lock shards")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight work")
		parametric   = fs.String("parametric", "auto", "closed-form parametric fast path: \"auto\" (numeric fallback outside the validated domain) or \"off\" (numeric engine only)")
		logMode      = fs.String("log", "json", "structured log format on stderr: \"json\", \"text\", or \"off\"")
		traceSample  = fs.Float64("trace-sample", 0.01, "fraction of requests whose trace document is retained for /debug/traces (inbound X-Trace-Id and 5xx are always kept)")
		traceRing    = fs.Int("trace-ring", 64, "sampled trace documents kept in memory for /debug/traces")
		pprofSpec    = fs.String("pprof", "", "profiling: cpu[=file], mem[=file], or host:port for net/http/pprof")

		loadgen  = fs.Bool("loadgen", false, "replay a generated load script against -target instead of serving")
		target   = fs.String("target", "", "base URL of the daemon to load (loadgen mode)")
		n        = fs.Int("n", 200, "requests to issue (loadgen mode)")
		distinct = fs.Int("distinct", 4, "distinct parameter sets in the script (loadgen mode)")
		seed     = fs.Int64("seed", 1, "load script seed (loadgen mode)")
		conc     = fs.Int("concurrency", 8, "parallel load clients (loadgen mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	l, ok := newLogger(*logMode)
	if !ok {
		logger.Error("invalid flag", "flag", "log", "got", *logMode, "want", "json|text|off")
		return 1
	}
	logger = l
	switch *parametric {
	case "auto", "off":
	default:
		logger.Error("invalid flag", "flag", "parametric", "got", *parametric, "want", "auto|off")
		return 1
	}

	if *pprofSpec != "" {
		stop, err := pprofutil.StartPprof(*pprofSpec)
		if err != nil {
			logger.Error("pprof start failed", "err", err.Error())
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				logger.Error("pprof stop failed", "err", err.Error())
			}
		}()
	}

	if *loadgen {
		return runLoadgen(ctx, *target, *seed, *n, *distinct, *conc)
	}

	tracer := obs.NewTracer()
	accessLog := logger
	if *logMode == "off" {
		accessLog = nil
	}
	s := serve.New(serve.Config{
		RouteTimeout: *routeTimeout,
		Workers:      *workers,
		Limiter: serve.LimiterConfig{
			MaxConcurrent: *maxConc,
			MaxQueue:      *queue,
			RetryAfter:    *retryAfter,
		},
		ResponseCache:   serve.CacheConfig{Shards: *cacheShards, Capacity: *cacheCap, TTL: *cacheTTL},
		AnalyzerCache:   serve.CacheConfig{Shards: *cacheShards},
		Parametric:      *parametric,
		Tracer:          tracer,
		TraceSampleRate: *traceSample,
		TraceRing:       *traceRing,
		Logger:          accessLog,
	})
	// Serve until the process is told to stop (SIGTERM/SIGINT or the
	// parent context), then drain: stop accepting, finish in-flight work.
	// The handler goes in before Start, so a signal that arrives as soon
	// as /readyz answers still drains instead of killing the process.
	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	bound, err := s.Start(*addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err.Error())
		return 1
	}
	announce(bound)
	<-sigCtx.Done()
	logger.Info("draining", "timeout", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		logger.Error("drain failed", "err", err.Error())
		return 1
	}
	ctrs := tracer.Counters()
	logger.Info("drained",
		"requests", ctrs[obs.CtrServeRequests],
		"coalesced", ctrs[obs.CtrServeCoalesced],
		"shed", ctrs[obs.CtrServeShed],
		"degraded", ctrs[obs.CtrServeDegraded],
		"traces_sampled", ctrs[obs.CtrServeTracesSampled])
	return 0
}

// runLoadgen replays a deterministic script against target and prints
// the aggregate report; nonzero exit on transport errors or any 5xx.
func runLoadgen(ctx context.Context, target string, seed int64, n, distinct, conc int) int {
	if target == "" {
		logger.Error("-loadgen needs -target")
		return 1
	}
	spec := serve.GenerateLoad(seed, n, distinct)
	if conc > 0 {
		spec.Concurrency = conc
	}
	report, err := serve.RunLoad(ctx, nil, target, spec)
	if err != nil {
		logger.Error("loadgen failed", "err", err.Error())
		return 1
	}
	fmt.Println(report)
	if report.Transport > 0 || report.Errors5xx > 0 {
		logger.Error("loadgen saw failures", "transport", report.Transport, "errors_5xx", report.Errors5xx)
		return 1
	}
	return 0
}
