package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"bimodal/internal/service"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/store"
	"bimodal/internal/workloads"
)

// workload is one named set of inputs. A unit is what the single caller
// waits for before issuing the next one: a cell, or for the sweep workload a
// whole sweep.
type workload struct {
	name string
	why  string
	// cell is the run spec of every unit of a single-cell workload, seed
	// left to the harness; zero for the sweep workload.
	cell  spec.RunSpec
	sweep bool
}

var workloadTable = []workload{
	{
		name: "q7-bimodal",
		why:  "the paper's scheme on its irregular mix: most accesses hit and small blocks are common, so core cache, way locator and predictor do most of the work",
		cell: spec.RunSpec{Scheme: "bimodal", Mix: "Q7", Options: spec.Options{AccessesPerCore: 10_000, CacheDivisor: 16}},
	},
	{
		name: "q2-alloy-stream",
		why:  "streaming and miss-heavy with writebacks, so the DRAM miss path dominates; Alloy never calls the core cache, so a core-cache change must not move it",
		cell: spec.RunSpec{Scheme: "alloy", Mix: "Q2", Options: spec.Options{AccessesPerCore: 20_000, CacheDivisor: 16}},
	},
	{
		name: "dc8-tenants",
		why:  "8 cores of 4 interleaved tenants sharing a hot region: the dispatch heap, the tenant interleaver, per-tenant attribution and 4 stacked channels",
		cell: spec.RunSpec{Scheme: "bimodal", Workload: &spec.WorkloadSpec{
			Cores:       8,
			Tenants:     []spec.TenantSpec{{Profile: "kvstore", Weight: 2}, {Profile: "webserve"}, {Profile: "scan"}},
			SharedPct:   5,
			SharedPages: 64,
		}, Options: spec.Options{AccessesPerCore: 10_000, CacheDivisor: 16}},
	},
	{
		name:  "service-sweep",
		why:   "tiny sweeps over HTTP mixing fresh, warm-restored and stored cells, so queue, store, snapshots, encoding and HTTP dominate",
		sweep: true,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloadTable {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// primeSeed seeds the untimed priming unit. It is the same for every run, so
// every run checks one unit against its recorded digest.
const primeSeed = 1 << 62

// unitSeed is the spec seed of unit k: a run's inputs are a function of its
// seed, and runs with nearby seeds share no cells.
func unitSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return primeSeed
	}
	return seed<<20 + uint64(k)
}

// unitSpecs returns the canonical run specs of unit k, with access counts
// and cache size divided by scale, a power of two (1 outside tests).
func (w workload) unitSpecs(seed uint64, k int, scale int64) ([]spec.RunSpec, error) {
	var out []spec.RunSpec
	if !w.sweep {
		rs := w.cell
		rs.Seed = unitSeed(seed, k)
		out = []spec.RunSpec{rs}
	} else {
		prev := uint64(primeSeed - 1)
		if k > 0 {
			prev = unitSeed(seed, k-1)
		}
		out = sweepSpecs(unitSeed(seed, k), prev)
	}
	for i, rs := range out {
		rs.Options.AccessesPerCore = max(rs.Options.AccessesPerCore/scale, 1)
		if rs.Options.WarmupPerCore > 0 {
			rs.Options.WarmupPerCore = max(rs.Options.WarmupPerCore/scale, 1)
		}
		rs.Options.CacheDivisor *= uint64(scale)
		c, err := rs.Canonical()
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// sweepSpecs returns one sweep's 12 cells: the 4 short cells of the previous
// sweep again (store hits), then 8 new ones. Alloy cells of both lengths
// share a warm prefix, so the longer one restores the shorter one's
// snapshot; Bi-Modal scales its parameters by run length, so its two lengths
// both run cold.
func sweepSpecs(seed, prev uint64) []spec.RunSpec {
	cell := func(scheme, mix string, n int64, seed uint64) spec.RunSpec {
		return spec.RunSpec{Scheme: scheme, Mix: mix, Seed: seed,
			Options: spec.Options{AccessesPerCore: n, WarmupPerCore: 400, CacheDivisor: 64}}
	}
	var out []spec.RunSpec
	for _, mix := range []string{"Q1", "Q7"} {
		for _, scheme := range []string{"alloy", "bimodal"} {
			out = append(out, cell(scheme, mix, 200, prev))
		}
	}
	for _, mix := range []string{"Q1", "Q7"} {
		for _, scheme := range []string{"alloy", "bimodal"} {
			out = append(out, cell(scheme, mix, 200, seed), cell(scheme, mix, 300, seed))
		}
	}
	return out
}

// quota is the simulated work of a cell: cores × (measured + warmup)
// accesses per core.
func quota(rs spec.RunSpec) (int64, error) {
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		return 0, err
	}
	return int64(mix.Cores()) * (rs.Options.AccessesPerCore + max(rs.Options.WarmupPerCore, 0)), nil
}

// unit is one completed unit of work.
type unit struct {
	k     int
	specs []spec.RunSpec
	wall  time.Duration
	// ref is the reference loop's time around the unit (see host.go).
	ref time.Duration
	// raw is the result: the cell JSON, or the merged sweep JSON.
	raw []byte
	err error
}

// host is the unit's time in seconds at reference host speed.
func (u unit) host() float64 { return scaled(u.wall, u.ref) }

// cells splits the result into its per-cell JSON documents.
func (u unit) cells() ([][]byte, error) {
	if len(u.specs) == 1 {
		return [][]byte{u.raw}, nil
	}
	var doc struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(u.raw, &doc); err != nil {
		return nil, fmt.Errorf("decoding sweep result: %w", err)
	}
	if len(doc.Cells) != len(u.specs) {
		return nil, fmt.Errorf("sweep result has %d cells, want %d", len(doc.Cells), len(u.specs))
	}
	out := make([][]byte, len(doc.Cells))
	for i, c := range doc.Cells {
		out[i] = c
	}
	return out, nil
}

// runner executes units; a runner is used from one goroutine.
type runner interface {
	run(ctx context.Context, k int) unit
	close() error
}

// cellRunner runs each unit through service.RunCellSpec, the in-process
// entry point cluster workers and the service use.
type cellRunner struct {
	w     workload
	seed  uint64
	scale int64
}

func (r cellRunner) run(ctx context.Context, k int) unit {
	specs, err := r.w.unitSpecs(r.seed, k, r.scale)
	if err != nil {
		return unit{k: k, err: err}
	}
	t0 := time.Now()
	raw, err := service.RunCellSpec(ctx, specs[0])
	return unit{k: k, specs: specs, wall: time.Since(t0), raw: raw, err: err}
}

func (cellRunner) close() error { return nil }

// freshCell runs one cell on a newly constructed, unpooled simulator: the
// reference pooled results must equal.
func freshCell(ctx context.Context, rs spec.RunSpec) ([]byte, error) {
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		return nil, err
	}
	factory, err := sim.FactoryForSpec(rs, mix.Cores())
	if err != nil {
		return nil, err
	}
	so := sim.OptionsForSpec(rs)
	so.Workers = 1
	s := sim.NewSim(mix, factory, so)
	if err := s.Warmup(ctx); err != nil {
		return nil, err
	}
	res, err := s.Measure(ctx)
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.NewCellResult(rs.Scheme, res))
}

// sweepRunner submits each unit as a sweep to an in-process server over
// HTTP and follows it to completion over SSE. Polling would quantize the
// latency to the poll period.
type sweepRunner struct {
	w     workload
	seed  uint64
	scale int64
	srv   *service.Server
	ts    *httptest.Server
	cl    *service.Client
	// t, when set, traces every sweep into lay.
	t   *tracer
	lay *sweepLayers
}

// newSweepRunner starts a server with one worker and serial sweep fan-out
// over st and waits until it answers.
func newSweepRunner(ctx context.Context, w workload, seed uint64, scale int64, st store.Store) (*sweepRunner, error) {
	srv := service.New(service.Config{Workers: 1, SweepFanout: 1, Store: st})
	ts := httptest.NewServer(srv.Handler())
	r := &sweepRunner{w: w, seed: seed, scale: scale, srv: srv, ts: ts, cl: service.NewClient(ts.URL)}
	if err := r.healthy(ctx); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *sweepRunner) healthy(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.ts.URL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func (r *sweepRunner) run(ctx context.Context, k int) unit {
	specs, err := r.w.unitSpecs(r.seed, k, r.scale)
	if err != nil {
		return unit{k: k, err: err}
	}
	if r.t != nil {
		return r.traceSweep(ctx, k, specs)
	}
	t0 := time.Now()
	st, err := r.cl.SubmitSweep(ctx, service.SweepRequest{Specs: specs})
	if err != nil {
		return unit{k: k, specs: specs, err: err}
	}
	fin, err := r.cl.FollowSweep(ctx, st.ID, nil)
	u := unit{k: k, specs: specs, wall: time.Since(t0), raw: fin.Result, err: err}
	if err == nil && fin.State != service.StateCompleted {
		u.err = fmt.Errorf("sweep %s ended %s: %s", fin.ID, fin.State, fin.Error)
	}
	return u
}

func (r *sweepRunner) close() error {
	r.ts.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r.srv.Shutdown(ctx)
}

// storeGeneration is how many blobs one generation of genStore holds.
const storeGeneration = 32

// genStore is the sweep server's result store: two generations of
// store.Mem, the older dropped once the newer holds storeGeneration blobs.
// The service's default store keeps every warm snapshot (about 300 KB each,
// six per sweep), which would exhaust memory over a run. A sweep re-reads
// only the sweep before it, which the last two generations always hold.
type genStore struct {
	mu        sync.Mutex
	cur, prev *store.Mem
	n         int
}

func newGenStore() *genStore { return &genStore{cur: store.NewMem(), prev: store.NewMem()} }

func (s *genStore) gens() (cur, prev *store.Mem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.prev
}

func (s *genStore) Get(hash string) ([]byte, bool, error) {
	cur, prev := s.gens()
	if b, ok, err := cur.Get(hash); ok || err != nil {
		return b, ok, err
	}
	return prev.Get(hash)
}

func (s *genStore) Put(hash string, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.cur.Put(hash, blob); err != nil {
		return err
	}
	if s.n++; s.n == storeGeneration {
		s.prev, s.cur, s.n = s.cur, store.NewMem(), 0
	}
	return nil
}

func (s *genStore) Len() (int, error) {
	cur, prev := s.gens()
	a, err := cur.Len()
	if err != nil {
		return 0, err
	}
	b, err := prev.Len()
	return a + b, err
}
