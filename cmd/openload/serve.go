package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/graph"
	"hotpotato/internal/persist"
	"hotpotato/internal/service"
)

type serveConfig struct {
	addr        string
	topoName    string
	net         *graph.Leveled
	engine      dynamic.Config
	faultSpec   string
	faultSeed   int64
	tenantSpec  string
	autoStep    bool
	snapPath    string
	restorePath string
}

// runServe hosts routing-as-a-service until SIGINT/SIGTERM, then drains
// in the documented order: freeze the snapshot first (so the open
// window's accumulators survive into the restored process), flush the
// final partial window for the local report, shut the listener down
// bounded, and stop the engine loops.
func runServe(sc serveConfig) {
	if sc.addr == "" {
		fatal(fmt.Errorf("serve mode requires -http addr"))
	}
	var svc *service.Service
	if sc.restorePath != "" {
		f, err := os.Open(sc.restorePath)
		fatal(err)
		snap, err := persist.ReadServiceSnapshot(f)
		f.Close()
		fatal(err)
		svc, err = service.Restore(snap, service.Options{})
		fatal(err)
		fmt.Fprintf(os.Stderr, "openload: restored %d topology(ies) from %s\n", len(snap.Topologies), sc.restorePath)
	} else {
		tenants, err := service.ParseTenants(sc.tenantSpec)
		fatal(err)
		svc, err = service.New([]service.TopologyConfig{{
			Name:      sc.topoName,
			Network:   sc.net,
			Engine:    sc.engine,
			FaultSpec: sc.faultSpec,
			FaultSeed: sc.faultSeed,
			AutoStep:  sc.autoStep,
			Tenants:   tenants,
		}}, service.Options{})
		fatal(err)
	}
	svc.Publish("service")

	mux := http.NewServeMux()
	mux.Handle("/v1/", svc.Handler())
	mux.Handle("/debug/", http.DefaultServeMux) // expvar + pprof
	server := newHTTPServer(sc.addr, mux)
	go func() {
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "openload: http:", err)
			os.Exit(1)
		}
	}()
	fmt.Fprintf(os.Stderr, "openload: serving routing API on %s (topologies: %v)\n", sc.addr, svc.Names())

	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "openload: draining")

	// 1. Freeze in-flight state while the window is still open.
	if sc.snapPath != "" {
		if err := writeSnapshotFile(svc, sc.snapPath); err != nil {
			fmt.Fprintln(os.Stderr, "openload: snapshot:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "openload: snapshot written to %s\n", sc.snapPath)
	}
	// 2. Close the partial window so the exit report drops nothing.
	if err := svc.FlushWindows(); err != nil {
		fmt.Fprintln(os.Stderr, "openload: flush:", err)
	}
	// 3. Final report: the same stats object /v1/topologies serves.
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(svc.AllStats()); err != nil {
		fmt.Fprintln(os.Stderr, "openload: report:", err)
	}
	// 4. Bounded listener shutdown, then stop the loops.
	shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	if err := server.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "openload: shutdown:", err)
	}
	cancel()
	svc.Close()
}

// writeSnapshotFile writes the snapshot atomically: temp file in the
// destination directory, then rename — a crash mid-write never leaves a
// truncated snapshot where a restore would look for one.
func writeSnapshotFile(svc *service.Service, path string) error {
	snap, err := svc.Snapshot()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*.json")
	if err != nil {
		return err
	}
	if err := persist.WriteServiceSnapshot(tmp, snap); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// HTTP server timeouts. Reads and idle keep-alive connections are
// bounded so a slow or silent client cannot hold a connection (and its
// goroutine) forever; the write bound leaves room for the default 30 s
// /debug/pprof/profile capture.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 90 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the server both modes listen with.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}
