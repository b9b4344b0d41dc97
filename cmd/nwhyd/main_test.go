package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"nwhy"
)

// syncWriter is a goroutine-safe capture buffer for the daemon's stdout.
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

var listenRE = regexp.MustCompile(`listening on ([^ ]+) `)

// bootDaemon starts the daemon on an ephemeral port against a warm-start
// directory holding one dataset, "demo", and waits for its listen address.
// stop cancels the signal context and returns run's result once it has
// drained; it also runs at test cleanup, so no daemon outlives its test.
func bootDaemon(t *testing.T) (addr string, out *syncWriter, stop func() error) {
	t.Helper()
	dir := t.TempDir()
	g := nwhy.FromSets([][]uint32{{0, 1, 2}, {2, 3}, {3, 4}, {5, 6}}, 7)
	if err := g.SaveSnapshot(filepath.Join(dir, "demo.nwhyb")); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	out = &syncWriter{}
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-data", dir, "-threads", "2"}, out)
	}()
	stop = sync.OnceValue(func() error {
		cancel()
		select {
		case err := <-runErr:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("daemon did not drain; output: %s", out.String())
		}
	})
	t.Cleanup(func() { _ = stop() }) // a test that cares calls stop itself

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return m[1], out, stop
		}
		select {
		case err := <-runErr:
			t.Fatalf("daemon exited early: %v\noutput: %s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output: %s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonLifecycle boots the daemon, queries it over HTTP, then cancels
// the signal context and asserts a clean drain.
func TestDaemonLifecycle(t *testing.T) {
	addr, out, stop := bootDaemon(t)
	base := "http://" + addr

	get := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s status = %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s decode: %v", path, err)
		}
	}

	var health struct {
		Status   string   `json:"status"`
		Datasets []string `json:"datasets"`
	}
	get("/healthz", &health)
	if health.Status != "ok" || len(health.Datasets) != 1 || health.Datasets[0] != "demo" {
		t.Fatalf("health = %+v", health)
	}

	var sl struct {
		NumVertices int  `json:"num_vertices"`
		CacheHit    bool `json:"cache_hit"`
	}
	get("/slinegraph?dataset=demo&s=1", &sl)
	if sl.NumVertices != 4 || sl.CacheHit {
		t.Fatalf("slinegraph = %+v", sl)
	}
	get("/slinegraph?dataset=demo&s=1", &sl)
	if !sl.CacheHit {
		t.Fatalf("repeated slinegraph = %+v, want cache hit", sl)
	}

	var scc struct {
		NumComponents int `json:"num_components"`
	}
	get("/scc?dataset=demo&s=1", &scc)
	if scc.NumComponents != 2 {
		t.Fatalf("scc = %+v, want 2 components", scc)
	}

	// Signal-context cancellation drains the server and run returns nil.
	if err := stop(); err != nil {
		t.Fatalf("run returned %v after drain, want nil", err)
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("missing drain message; output: %s", out.String())
	}
}

func TestDaemonRequiresDatasets(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0"}, &syncWriter{})
	if err == nil || !strings.Contains(err.Error(), "no datasets") {
		t.Fatalf("err = %v, want no-datasets error", err)
	}
}

func TestDaemonBadDatasetFlag(t *testing.T) {
	err := run(context.Background(), []string{"-dataset", "nopath"}, &syncWriter{})
	if err == nil || !strings.Contains(fmt.Sprint(err), "name=path") {
		t.Fatalf("err = %v, want name=path complaint", err)
	}
}

// TestDaemonDropsStalledHeaders: a client that sends half a request header
// and then stalls is disconnected once readHeaderTimeout passes, without a
// reply; a server without the timeout would hold the connection open.
func TestDaemonDropsStalledHeaders(t *testing.T) {
	addr, _, _ := bootDaemon(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: nwhyd\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the stalled connection = (%d, %v) after %v, want the server to close it", n, err, time.Since(t0))
	}
}
