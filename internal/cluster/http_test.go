package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bimodal/internal/service"
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
	parked := func(id string) {
		t.Helper()
		waitFor(t, func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			return len(c.waiters) == 1 && c.waiters[0].w.id == id
		})
	}
	parked("worker-0001")

	status, body := request(t, http.MethodGet, hs.URL+"/cluster/v1/workers")
	want := `{"workers":[{"id":"worker-0001","name":"w","running":0}],"pending":0}` + "\n"
	if status != http.StatusOK || body != want {
		t.Fatalf("GET /cluster/v1/workers = %d %q, want 200 %q", status, body, want)
	}

	if err := c.Leave("worker-0001"); err != nil {
		t.Fatal(err)
	}
	parked("worker-0002")
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
	if status, body := request(t, http.MethodDelete, hs.URL+"/cluster/v1/workers/worker-0002"); status != http.StatusGone {
		t.Errorf("second DELETE = %d %q, want 410", status, body)
	}

	c.Close()
	w := &Worker{Coordinator: hs.URL, Slots: 1, Metrics: reg}
	if err := w.Serve(context.Background()); !errors.Is(err, service.ErrDraining) {
		t.Errorf("join to a closed coordinator = %v, want service.ErrDraining", err)
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
