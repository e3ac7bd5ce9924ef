package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpcgraph/internal/obs"
	"mpcgraph/internal/service"
)

// runServe starts the mpcgraphd daemon: the internal/service job API
// bound to one listener, with graceful drain on SIGINT/SIGTERM. The
// standalone cmd/mpcgraphd binary is a thin shim over this subcommand,
// so both entry points share one flag surface and lifecycle.
func runServe(args []string, env Env) error {
	fs := flag.NewFlagSet("mpcgraph serve", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address; port 0 picks an ephemeral port")
		workers      = fs.Int("workers", 2, "concurrent solve workers draining the job queue")
		queueDepth   = fs.Int("queue", 64, "job queue bound; a full queue rejects submissions with 429")
		cacheEntries = fs.Int("cache", 1024, "entry bound of the memory result cache and, separately, of the resolve memo (negative disables both)")
		cacheDir     = fs.String("cache-dir", "", "persistent result-cache directory; results survive restarts and crashes (empty disables the disk tier)")
		diskEntries  = fs.Int("disk-entries", 0, "persistent-tier entry bound (0 = default 65536); oldest entries by access time are evicted")
		jobWorkers   = fs.Int("job-workers", 0, "per-job parallel workers when a request leaves workers unset (0 = all cores); results are identical for every value")
		drainWait    = fs.Duration("drain", 30*time.Second, "graceful-drain deadline on shutdown before running jobs are canceled")
		pprofAddr    = fs.String("pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty disables; keep it loopback-only)")
		logLevel     = fs.String("log-level", "info", "structured-log threshold: debug, info, warn or error")
		logFormat    = fs.String("log-format", "json", "structured-log encoding on stderr: json (one object per line) or text (key=value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	jsonLines, err := obs.ParseLogFormat(*logFormat)
	if err != nil {
		return err
	}
	// The handler is installed before the listen line below: a script may
	// SIGTERM the daemon the moment it reads that line, and the signal
	// must then drain it, not kill it.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Fault injection is an env var, not a flag: it exists for the
	// chaos harness and must be impossible to arm by flag typo.
	srv, err := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		CacheEntries:      *cacheEntries,
		CacheDir:          *cacheDir,
		DiskEntries:       *diskEntries,
		DefaultJobWorkers: *jobWorkers,
		Failpoints:        os.Getenv("MPCGRAPHD_FAILPOINTS"),
		Logger:            obs.NewLogger(env.Stderr, level, jsonLines),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		// The profiler gets its own listener and mux: the job API mux
		// stays free of debug handlers, and a firewalled deployment can
		// bind profiling to loopback while serving jobs externally.
		pprofLn, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(env.Stdout, "mpcgraphd pprof on http://%s/debug/pprof/\n", pprofLn.Addr())
		go func() {
			// net.ErrClosed is the normal shutdown path: the deferred
			// listener close fires when serve returns.
			if err := http.Serve(pprofLn, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(env.Stderr, "mpcgraphd: pprof server stopped: %v\n", err)
			}
		}()
		defer pprofLn.Close()
	}
	// The one parseable line scripts (and the service-smoke harness)
	// wait for before submitting.
	fmt.Fprintf(env.Stdout, "mpcgraphd listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(env.Stderr, "mpcgraphd: draining (new submissions rejected, running jobs finishing)")
	srv.Drain(*drainWait)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	fmt.Fprintln(env.Stderr, "mpcgraphd: drained, exiting")
	return nil
}
