package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"bimodal/internal/service"
)

// The cluster control plane is a small HTTP surface under /cluster/v1,
// mounted beside the public v1 API by cmd/bmserved in coordinator mode.
// Failures use the same uniform error envelope as the public API (via
// service.WriteError); a reaped worker sees 410 worker_gone and rejoins
// under a fresh ID.
//
//	POST   /cluster/v1/workers               join    {"name"} -> {"id","ttl_seconds"}
//	POST   /cluster/v1/workers/{id}/heartbeat liveness refresh -> 204
//	POST   /cluster/v1/workers/{id}/pull      long-poll next cell -> 200 Task | 204
//	DELETE /cluster/v1/workers/{id}           clean leave -> 204
//	POST   /cluster/v1/tasks/{tid}/result     report {"worker_id","blob"|"error"} -> 204
//	GET    /cluster/v1/workers                introspection -> {"workers","pending"}

// joinRequest names a joining worker (informational only).
type joinRequest struct {
	Name string `json:"name,omitempty"`
}

// joinReply tells the worker its identity and liveness obligations.
// TTL is in milliseconds so tests can run sub-second liveness windows.
type joinReply struct {
	ID        string `json:"id"`
	TTLMillis int64  `json:"ttl_ms"`
}

// resultReport is a worker's verdict on one task: result bytes, or a
// simulation error. Blob stays raw end to end — the coordinator hands the
// exact bytes to the sweep assembler.
type resultReport struct {
	WorkerID string          `json:"worker_id"`
	Blob     json.RawMessage `json:"blob,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// workersReply is the introspection listing.
type workersReply struct {
	Workers []WorkerInfo `json:"workers"`
	Pending int          `json:"pending"`
}

// Handler serves the cluster control plane.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/workers", c.handleJoin)
	mux.HandleFunc("GET /cluster/v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /cluster/v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /cluster/v1/workers/{id}/pull", c.handlePull)
	mux.HandleFunc("DELETE /cluster/v1/workers/{id}", c.handleLeave)
	mux.HandleFunc("POST /cluster/v1/tasks/{tid}/result", c.handleResult)
	return mux
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		service.WriteError(w, http.StatusBadRequest, service.CodeInvalidRequest,
			fmt.Sprintf("decoding join request: %v", err), nil)
		return
	}
	id, ttl, err := c.Join(req.Name)
	if err != nil {
		service.WriteError(w, http.StatusServiceUnavailable, service.CodeDraining,
			err.Error(), nil)
		return
	}
	writeJSON(w, joinReply{ID: id, TTLMillis: ttl.Milliseconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if err := c.Heartbeat(r.PathValue("id")); err != nil {
		writeWorkerGone(w, r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handlePull(w http.ResponseWriter, r *http.Request) {
	t, err := c.Pull(r.Context(), r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownWorker):
		writeWorkerGone(w, r.PathValue("id"))
	case err != nil || t == nil:
		// Canceled request or empty long-poll window: nothing to hand out.
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, t)
	}
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	if err := c.Leave(r.PathValue("id")); err != nil {
		writeWorkerGone(w, r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var rep resultReport
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&rep); err != nil {
		service.WriteError(w, http.StatusBadRequest, service.CodeInvalidRequest,
			fmt.Sprintf("decoding result report: %v", err), nil)
		return
	}
	var workErr error
	if rep.Error != "" {
		workErr = fmt.Errorf("cluster: worker %s: %s", rep.WorkerID, rep.Error)
	} else if len(rep.Blob) == 0 {
		service.WriteError(w, http.StatusBadRequest, service.CodeInvalidRequest,
			"result report carries neither blob nor error", nil)
		return
	}
	// Report is idempotent: late and duplicate deliveries land here too
	// and are absorbed, so a worker may always retry this call.
	c.Report(rep.WorkerID, r.PathValue("tid"), rep.Blob, workErr)
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	workers, pending := c.Workers()
	if workers == nil {
		workers = []WorkerInfo{}
	}
	writeJSON(w, workersReply{Workers: workers, Pending: pending})
}

// writeWorkerGone emits the 410 that tells a worker its registration is
// void and it must rejoin for a fresh ID.
func writeWorkerGone(w http.ResponseWriter, id string) {
	service.WriteError(w, http.StatusGone, service.CodeWorkerGone,
		fmt.Sprintf("worker %q is not registered (reaped or never joined); rejoin for a new ID", id),
		map[string]any{"worker_id": id})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		_ = err
	}
}
