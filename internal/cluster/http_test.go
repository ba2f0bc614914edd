package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bimodal/internal/service"
	"bimodal/internal/spec"
	"bimodal/internal/telemetry"
)

// TestControlPlaneHTTP drives the control plane's failure paths over real
// HTTP: the introspection listing, a parked pull answered 410 worker_gone
// when its worker is removed (Serve rejoins under a fresh ID), a clean
// shutdown whose DELETE deregisters the worker although no TTL has passed
// (the fake clock never moves), and a join refused by a closed coordinator.
func TestControlPlaneHTTP(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{PollWait: time.Minute})
	hs := httptest.NewServer(c.Handler())
	defer hs.Close()

	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		w := &Worker{Coordinator: hs.URL, Name: "w", Slots: 1, Metrics: reg}
		served <- w.Serve(ctx)
	}()
	// parked waits for exactly one parked pull, from a worker ID other
	// than old and with the given sequence number, and returns the ID.
	parked := func(old, seq string) string {
		t.Helper()
		var id string
		waitFor(t, func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			if len(c.waiters) != 1 || c.waiters[0].w.id == old {
				return false
			}
			id = c.waiters[0].w.id
			return true
		})
		if want := "worker-" + c.tag + "-" + seq; id != want {
			t.Fatalf("parked worker ID = %q, want %q", id, want)
		}
		return id
	}
	id1 := parked("", "0001")

	status, body := request(t, http.MethodGet, hs.URL+"/cluster/v1/workers")
	want := `{"workers":[{"id":"` + id1 + `","name":"w","running":0}],"pending":0}` + "\n"
	if status != http.StatusOK || body != want {
		t.Fatalf("GET /cluster/v1/workers = %d %q, want 200 %q", status, body, want)
	}

	if err := c.Leave(id1); err != nil {
		t.Fatal(err)
	}
	id2 := parked(id1, "0002")
	if got := reg.Counter("bimodal_worker_rejoins_total").Value(); got != 1 {
		t.Errorf("rejoins = %d, want 1", got)
	}

	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if ws, _ := c.Workers(); len(ws) != 0 {
		t.Fatalf("workers after a clean leave = %+v, want none", ws)
	}
	if got := c.mDead.Value(); got != 0 {
		t.Errorf("dead workers = %d, want 0 (left, not reaped)", got)
	}
	if status, body := request(t, http.MethodDelete, hs.URL+"/cluster/v1/workers/"+id2); status != http.StatusGone {
		t.Errorf("second DELETE = %d %q, want 410", status, body)
	}

	c.Close()
	w := &Worker{Coordinator: hs.URL, Slots: 1, Metrics: reg}
	if err := w.Serve(context.Background()); !errors.Is(err, service.ErrDraining) {
		t.Errorf("join to a closed coordinator = %v, want service.ErrDraining", err)
	}
}

// TestWorkerSurvivesCoordinatorRestart stops coordinator A's server under
// a serving worker, as a crash would, and starts coordinator B on the same
// address. The worker retries its failed pull until B answers 410 for an
// ID B never issued, rejoins B and runs a cell dispatched through B.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	a, _ := newTestCoordinator(t, Config{PollWait: time.Minute})
	ha := httptest.NewServer(a.Handler())
	defer ha.Close()

	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		w := &Worker{Coordinator: ha.URL, Name: "w", Slots: 1, Metrics: reg,
			Run: func(ctx context.Context, rs spec.RunSpec) ([]byte, error) {
				return []byte(fmt.Sprintf(`{"seed":%d}`, rs.Seed)), nil
			}}
		served <- w.Serve(ctx)
	}()
	waitFor(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.waiters) == 1
	})

	// The parked pull's connection drops and the address stops answering.
	ha.CloseClientConnections()
	ha.Close()
	b, _ := newTestCoordinator(t, Config{PollWait: time.Minute})
	ln, err := net.Listen("tcp", ha.Listener.Addr().String())
	if err != nil {
		t.Fatalf("rebinding A's address: %v", err)
	}
	hb := httptest.NewUnstartedServer(b.Handler())
	hb.Listener.Close()
	hb.Listener = ln
	hb.Start()
	defer hb.Close()

	waitFor(t, func() bool {
		select {
		case err := <-served:
			t.Fatalf("Serve returned while the coordinator restarted: %v", err)
		default:
		}
		ws, _ := b.Workers()
		return len(ws) == 1
	})
	if got := reg.Counter("bimodal_worker_rejoins_total").Value(); got != 1 {
		t.Errorf("rejoins = %d, want 1", got)
	}
	select {
	case r := <-dispatch(ctx, b, 7):
		if r.err != nil || string(r.blob) != `{"seed":7}` {
			t.Errorf("cell through B = %s, %v; want {\"seed\":7}", r.blob, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the rejoined worker did not run a cell dispatched through B")
	}

	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Serve = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}

// request issues one bodiless request and returns the status and body.
func request(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}
