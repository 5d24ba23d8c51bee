package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hotpotato/internal/persist"
	"hotpotato/internal/service"
)

// TestServeGracefulDrain is the end-to-end drain contract for
// openload -serve: a real child process gets real traffic and a real
// SIGTERM, and must (1) write a restorable snapshot, (2) flush the
// final partial window into its exit report, (3) exit cleanly within a
// bound, and (4) leave a snapshot whose state matches the report it
// printed — the pieces a supervisor restart relies on.
func TestServeGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "openload")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	addr := freeAddr(t)
	snapPath := filepath.Join(dir, "svc.json")
	cmd := exec.Command(bin,
		"-serve", "-http", addr, "-autostep=false",
		"-lambda", "0", "-window", "25", "-seed", "42",
		"-tenants", "gold:rate=1000,burst=1000;free:rate=1,burst=4",
		"-snapshot", snapPath,
	)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr + "/v1/topologies/butterfly"
	waitReady(t, base)

	// Real traffic: gold within budget, free well over it, then enough
	// manual steps to close at least one window and leave one open.
	postOK(t, base+"/batches", `{"tenant":"gold","random":30}`)
	postOK(t, base+"/batches", `{"tenant":"free","random":30}`)
	postOK(t, base+"/advance", `{"steps":40}`)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("drain not bounded: still running 10s after SIGTERM\nstderr: %s", stderr.String())
	}

	// The exit report is the same []TopologyStats /v1/topologies serves.
	var report []service.TopologyStats
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("exit report not JSON: %v\nstdout: %s", err, stdout.String())
	}
	if len(report) != 1 || report[0].Name != "butterfly" {
		t.Fatalf("report: %+v", report)
	}
	rep := report[0]
	// 40 steps at window 25: one closed window plus a partial one that
	// only the drain-order flush can surface.
	if rep.LastWindow == nil {
		t.Error("final partial window was not flushed into the exit report")
	} else if rep.LastWindow.Start != 25 {
		t.Errorf("last window starts at %d, want 25 (the partial window)", rep.LastWindow.Start)
	}
	if rep.Step != 40 {
		t.Errorf("stepped %d, want 40", rep.Step)
	}
	// Quota arithmetic is exact: gold's burst covers its whole batch,
	// free's burst of 4 passes 4 of 30. (Engine-level drops depend on
	// contention, so only the quota ledger is asserted exactly.)
	if g := rep.Tenants["gold"]; g.Offered != 30 || g.QuotaDropped != 0 {
		t.Errorf("gold ledger: %+v", g)
	}
	if f := rep.Tenants["free"]; f.Offered != 30 || f.QuotaDropped != 26 || f.Dropped == 0 {
		t.Errorf("free ledger: %+v", f)
	}

	// The snapshot must exist, validate, and restore into a live service
	// whose digest matches the report — because it was taken BEFORE the
	// flush, at the same step boundary the report describes.
	fh, err := os.Open(snapPath)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	snap, err := persist.ReadServiceSnapshot(fh)
	fh.Close()
	if err != nil {
		t.Fatalf("snapshot unreadable: %v", err)
	}
	svc, err := service.Restore(snap, service.Options{})
	if err != nil {
		t.Fatalf("snapshot does not restore: %v", err)
	}
	defer svc.Close()
	got, err := svc.Stats("butterfly")
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != rep.Digest || got.Step != rep.Step {
		t.Errorf("restored digest/step %x/%d, report %x/%d",
			got.Digest, got.Step, rep.Digest, rep.Step)
	}
	if got.Tenants["free"].QuotaDropped != 26 {
		t.Errorf("restored free ledger: %+v", got.Tenants["free"])
	}
}

// freeAddr reserves a localhost port. The listener is closed before the
// child binds it — a small race, tolerated because the child retries
// nothing and waitReady would just fail loudly.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("service never became ready")
}

func postOK(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
}

// TestHTTPServerTimeouts: both listening modes share one server shape
// with every timeout set, and the write bound leaves room for a
// default 30 s /debug/pprof/profile capture.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NewServeMux())
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Errorf("server addr %q / handler %v not wired", srv.Addr, srv.Handler)
	}
	for name, got := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if got <= 0 {
			t.Errorf("%s unset", name)
		}
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("header timeout %v above the whole-request timeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	if srv.WriteTimeout <= 30*time.Second {
		t.Errorf("write timeout %v cuts off a default 30 s CPU profile", srv.WriteTimeout)
	}
}
