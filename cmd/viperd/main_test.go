package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"viper/internal/histgen"
	"viper/internal/histio"
	"viper/internal/server"
	"viper/internal/version"
)

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-version"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	want := "viperd " + version.Version + "\n"
	if out.String() != want {
		t.Fatalf("output %q, want %q", out.String(), want)
	}
}

func TestBadFlagExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d", code)
	}
}

// syncWriter serializes writes so the test can poll the daemon's stdout
// from another goroutine.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (http://[^\s]+)`)

// TestServeAndGracefulShutdown boots the daemon on an ephemeral port,
// drives a session through the Go client, cancels the run context (the
// SIGTERM path), and asserts a clean exit.
func TestServeAndGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	stdout, stderr := &syncWriter{}, &syncWriter{}

	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quiet"}, stdout, stderr)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; stdout %q stderr %q", stdout.String(), stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	cl := server.NewClient(base)
	h, err := cl.Health(ctx)
	if err != nil || h.Status != "ok" || h.Version != version.Version {
		t.Fatalf("health = %+v, %v", h, err)
	}

	info, err := cl.CreateSession(ctx, server.SessionConfig{Level: "si"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var raw bytes.Buffer
	if err := histio.Encode(&raw, histgen.SI(histgen.Spec{Txns: 30, Seed: 21})); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := cl.Append(ctx, info.ID, &raw, true); err != nil {
		t.Fatalf("append: %v", err)
	}
	doc, err := cl.Audit(ctx, info.ID)
	if err != nil || doc.Outcome != "accept" {
		t.Fatalf("audit = %+v, %v", doc, err)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not shut down; stderr %q", stderr.String())
	}
	if !strings.Contains(stderr.String(), "shutdown complete") {
		t.Fatalf("no shutdown log; stderr %q", stderr.String())
	}
}

// bootNode starts a daemon with extra flags on an ephemeral port and
// returns its base URL, exit channel, and cancel.
func bootNode(t *testing.T, extra ...string) (base string, done chan int, stderr *syncWriter, cancel context.CancelFunc) {
	t.Helper()
	ctx, cancelCtx := context.WithCancel(context.Background())
	stdout := &syncWriter{}
	stderr = &syncWriter{}
	done = make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-quiet"}, extra...)
	go func() { done <- run(ctx, args, stdout, stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case code := <-done:
			cancelCtx()
			t.Fatalf("daemon exited %d before listening; stderr %q", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			cancelCtx()
			t.Fatalf("daemon never reported its address; stderr %q", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return base, done, stderr, cancelCtx
}

func waitExit(t *testing.T, what string, done chan int, stderr *syncWriter) {
	t.Helper()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("%s exited %d; stderr %q", what, code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not shut down; stderr %q", what, stderr.String())
	}
}

func TestClusterFlagsMutuallyExclusive(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-coordinator", "-join", "http://127.0.0.1:1"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "mutually exclusive") {
		t.Fatalf("stderr %q", errb.String())
	}
}

func TestWorkerRefusesDeadCoordinator(t *testing.T) {
	var out bytes.Buffer
	errb := &syncWriter{}
	// 127.0.0.1:1 is reserved and connection-refuses immediately.
	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-quiet", "-join", "http://127.0.0.1:1"}, &out, errb); code != 2 {
		t.Fatalf("exit %d, want 2; stderr %q", code, errb.String())
	}
}

// TestClusterBootAndJoin boots a coordinator and a worker from the real
// flag surface, waits for membership, runs a distributed check through
// the coordinator, and shuts both down cleanly.
func TestClusterBootAndJoin(t *testing.T) {
	coordURL, coordDone, coordErr, stopCoord := bootNode(t, "-coordinator", "-node-name", "c1", "-heartbeat", "50ms")
	defer stopCoord()
	_, wkDone, wkErr, stopWorker := bootNode(t, "-join", coordURL, "-node-name", "wA", "-heartbeat", "50ms")
	defer stopWorker()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := server.NewClient(coordURL)

	h, err := cl.Health(ctx)
	if err != nil || h.Role != "coordinator" {
		t.Fatalf("coordinator health = %+v, %v", h, err)
	}
	nodes, err := cl.ClusterNodes(ctx)
	if err != nil || nodes.Coordinator != "c1" || len(nodes.Nodes) != 1 ||
		nodes.Nodes[0].Name != "wA" || !nodes.Nodes[0].Healthy {
		t.Fatalf("cluster nodes = %+v, %v", nodes, err)
	}

	var raw bytes.Buffer
	if err := histio.Encode(&raw, histgen.SI(histgen.Spec{Txns: 60, Keys: 5, Seed: 9})); err != nil {
		t.Fatal(err)
	}
	doc, err := cl.ClusterCheck(ctx, bytes.NewReader(raw.Bytes()), server.SessionConfig{Level: "si"})
	if err != nil || doc.Outcome != "accept" {
		t.Fatalf("cluster check = %+v, %v", doc, err)
	}
	if doc.Cluster == nil || doc.Cluster.Workers != 1 || doc.Cluster.LocalFallbacks != 0 {
		t.Fatalf("cluster section = %+v", doc.Cluster)
	}

	stopWorker()
	waitExit(t, "worker", wkDone, wkErr)
	stopCoord()
	waitExit(t, "coordinator", coordDone, coordErr)
}
