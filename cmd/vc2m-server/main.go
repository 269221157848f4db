// vc2m-server is the vC2M allocation daemon: a long-running HTTP/JSON
// service that accepts taskset/VM/platform specs, runs allocations
// concurrently on a bounded worker pool, and serves each run's report
// document and live lifecycle event stream (SSE). See internal/server for
// the API and package client for the typed Go client.
//
// Examples:
//
//	vc2m-server -addr 127.0.0.1:8700
//	vc2m-server -addr 127.0.0.1:0 -ready-file addr.txt -workers 4
//
// SIGINT/SIGTERM drain gracefully: in-flight runs complete, their
// reports are retained for late fetches until the listener closes, and
// the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vc2m/internal/obs"
	"vc2m/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the defer-safe driver: every return path unwinds cleanly, so
// the listener, ready file and worker pool are always released.
func run(args []string) int {
	fs := flag.NewFlagSet("vc2m-server", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8700", "listen address (port 0 picks an ephemeral port)")
	workers := fs.Int("workers", 2, "concurrent allocation workers")
	queue := fs.Int("queue", 64, "pending-run queue capacity")
	runTimeout := fs.Duration("run-timeout", 10*time.Minute, "per-run execution bound (0 disables)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request bound for non-streaming endpoints")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Minute, "shutdown drain bound before in-flight runs are canceled")
	readyFile := fs.String("ready-file", "", "write the bound address here once listening (for scripts)")
	slowRun := fs.Duration("slow-run", 0, "log a per-stage wall-clock breakdown for runs slower than this (0 disables)")
	debugRoutes := fs.Bool("debug-routes", false, "serve GET /debug/panic for verifying the recovery middleware")
	version := fs.Bool("version", false, "print the build identity and exit")
	logCfg := obs.LogFlags(fs, "info")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Println("vc2m-server", obs.GetBuildInfo())
		return 0
	}
	logger, err := logCfg.Build(os.Stderr, obs.GetBuildInfo().LogAttrs()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-server:", err)
		return 2
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		Queue:          *queue,
		RunTimeout:     *runTimeout,
		RequestTimeout: *reqTimeout,
		Logger:         logger,
		SlowRun:        *slowRun,
		DebugRoutes:    *debugRoutes,
	})
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-server:", err)
		return 1
	}
	defer ln.Close() //vc2m:closeflush backstop only; http.Server owns and closes the listener
	bound := ln.Addr().String()
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vc2m-server:", err)
			return 1
		}
		defer os.Remove(*readyFile)
	}
	fmt.Printf("vc2m-server listening on %s (%d workers, queue %d)\n", bound, *workers, *queue)
	logger.Info("listening", "addr", bound, "workers", *workers, "queue", *queue)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "vc2m-server:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain the
	// worker pool — in-flight runs complete and their reports flush into
	// the registry before the process exits 0.
	fmt.Println("vc2m-server: signal received, draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-server: drain:", err)
		_ = hs.Close()
		return 1
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "vc2m-server: http shutdown:", err)
		return 1
	}
	fmt.Println("vc2m-server: drained, exiting")
	return 0
}
