// Package service turns the simulator into a multi-tenant evaluation
// service: an HTTP JSON API over a bounded sweep queue and worker pool,
// per-cell SSE progress, Prometheus metrics (internal/telemetry) and a
// typed Go client. The request and result structs in this file are the
// single source of truth for the wire schema — the server, the client,
// cmd/bmsubmit and cmd/bmsim -json all share them.
//
// Determinism contract: a sweep's result JSON is a pure function of its
// canonical SweepRequest. The server expands a request into independent
// simulation cells (mix × scheme, or explicit run specs), resolves each
// cell against the content-addressed result store, simulates the misses,
// and assembles the merged result from the per-cell bytes in request
// order. Submitting the same request twice therefore yields byte-identical
// `result` payloads, whichever workers ran the cells, in whatever order
// they finished, and whether a cell was simulated or read back from the
// store.
//
// In-process, a sweep's misses run in warm-prefix groups, one simulation
// per group, and the groups share core streams: the first group to draw a
// core stream that a later group draws too records it, and the later group
// replays it (warm.go). Neither changes a byte; both only save work.
package service

import (
	"context"
	"encoding/json"
	"fmt"

	"bimodal/internal/energy"
	"bimodal/internal/engine"
	"bimodal/internal/sim"
	"bimodal/internal/spec"
	"bimodal/internal/stats"
	"bimodal/internal/workloads"
)

// SweepRequest describes one sweep: a batch of simulation cells executed
// as a unit under POST /v1/sweeps. The cross-product form crosses Mixes
// with Schemes (one cell per pair, mixes outermost, shared Options/Seed);
// the spec form lists explicit run specs, each carrying its own options
// and seed. The two forms are mutually exclusive. Each cell is hashed and
// resolved against the content-addressed result store individually,
// cells the store cannot answer are dispatched (locally or across cluster
// workers), and the merged result is assembled from the per-cell bytes in
// request order, which keeps it byte-identical whatever node ran which
// cell.
type SweepRequest struct {
	// Mixes lists workload mix names (Q1..Q24, E1..E16, S1..S8).
	Mixes []string `json:"mixes,omitempty"`
	// Schemes lists scheme names or registry aliases.
	Schemes []string `json:"schemes,omitempty"`
	// Specs lists explicit run specs (one cell each). When set, Mixes,
	// Schemes and Options must be empty; Seed fills any spec whose own
	// seed is zero.
	Specs []spec.RunSpec `json:"specs,omitempty"`
	// Options scale the simulations (cross-product form only).
	Options RunOptions `json:"options,omitempty"`
	// Seed decorrelates reruns; 0 means 1 (the sim default).
	Seed uint64 `json:"seed,omitempty"`
}

// RunOptions is the wire name for the canonical run-scaling options; the
// schema is owned by internal/spec so the CLI, the spec files and the
// service can never drift apart.
type RunOptions = spec.Options

// canonicalize validates the request and resolves it to its canonical
// form: aliases to canonical scheme names, defaulted options and seeds to
// explicit values. The returned hash is the SHA-256 of the canonical
// request's JSON — the sweep's identity and strong ETag, sound because
// result bytes are a pure function of the canonical request.
func (r SweepRequest) canonicalize() (SweepRequest, string, error) {
	if len(r.Specs) > 0 {
		if len(r.Mixes) > 0 || len(r.Schemes) > 0 {
			return r, "", fmt.Errorf("service: specs and mixes/schemes are mutually exclusive")
		}
		if r.Options != (RunOptions{}) {
			return r, "", fmt.Errorf("service: options must be empty when specs are given (each spec carries its own)")
		}
		specs := make([]spec.RunSpec, len(r.Specs))
		for i, rs := range r.Specs {
			if rs.Seed == 0 {
				rs.Seed = r.Seed
			}
			cs, err := rs.Canonical()
			if err != nil {
				return r, "", err
			}
			specs[i] = cs
		}
		r.Specs = specs
		r.Seed = 0 // folded into every spec above
	} else {
		if len(r.Mixes) == 0 {
			return r, "", fmt.Errorf("service: request needs at least one mix")
		}
		if len(r.Schemes) == 0 {
			return r, "", fmt.Errorf("service: request needs at least one scheme")
		}
		names := make([]string, len(r.Schemes))
		for i, n := range r.Schemes {
			d, err := spec.Lookup(n)
			if err != nil {
				return r, "", err
			}
			names[i] = d.Name
		}
		r.Schemes = names
		var err error
		if r.Options, err = r.Options.Canonical(); err != nil {
			return r, "", err
		}
		if r.Seed == 0 {
			r.Seed = 1
		}
	}
	hash, err := spec.HashJSON(r)
	if err != nil {
		return r, "", err
	}
	return r, hash, nil
}

// SweepStatus is the envelope returned by POST /v1/sweeps and GET
// /v1/sweeps/{id}. Result is present only once the sweep completed; only
// its bytes are covered by the determinism contract, not the envelope.
type SweepStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// SweepHash is the SHA-256 of the canonical sweep request.
	SweepHash string `json:"sweep_hash,omitempty"`
	Cells     int    `json:"cells"`
	CellsDone int    `json:"cells_done"`
	// StoreHits counts cells answered by the content-addressed result
	// store without simulating. A resweep of an already-swept request
	// reports StoreHits == Cells: zero re-simulations.
	StoreHits int `json:"store_hits"`
	// SpecHashes lists each cell's canonical spec hash in request order
	// (detail view only; list views omit it). Any of them resolves under
	// GET /v1/specs/{hash} and /v1/specs/{hash}/result.
	SpecHashes []string        `json:"spec_hashes,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Dispatcher executes one sweep cell that the result store could not
// answer and returns the cell's compact CellResult JSON. The default
// (nil) dispatcher runs the cell in-process; cluster coordinators inject
// a dispatcher that shards cells across worker nodes. Because a cell's
// bytes are a pure function of its canonical spec, the choice of
// dispatcher can never change result bytes — only where the work runs.
type Dispatcher interface {
	RunCell(ctx context.Context, rs spec.RunSpec, hash string) ([]byte, error)
}

// RunCellSpec executes one canonical run spec in-process and returns its
// compact CellResult JSON — the unit of work a cluster worker performs.
// The spec must already be canonical (the coordinator only hands out
// canonical specs); results are marshaled exactly once so every node
// produces identical bytes for identical specs.
func RunCellSpec(ctx context.Context, rs spec.RunSpec) (raw []byte, err error) {
	mix, err := workloads.MixForSpec(rs)
	if err != nil {
		return nil, err
	}
	// A warm-prefix group of one, the path every in-process cell takes.
	cells, ks, quotas := [1]cellSpec{{mix: mix, rs: rs}}, [1]int{}, [1]sim.Quota{}
	_, _, err = runGroup(ctx, cells[:], ks[:], quotas[:], nil, nil, func(_ int, res sim.RunResult) (err error) {
		raw, err = marshalCell(rs.Scheme, res)
		return err
	})
	return raw, err
}

// RunSpecs executes canonical run specs in-process the way a sweep runs
// its store misses (RunSpecsEach) and returns each spec's result bytes in
// order, which equal RunCellSpec's.
func RunSpecs(ctx context.Context, specs []spec.RunSpec, workers int) ([][]byte, error) {
	raws := make([][]byte, len(specs))
	err := RunSpecsEach(ctx, specs, workers, func(k int, res sim.RunResult) (err error) {
		raws[k], err = marshalCell(specs[k].Scheme, res)
		return err
	})
	if err != nil {
		return nil, err
	}
	return raws, nil
}

// RunSpecsEach executes canonical run specs in-process the way a sweep
// runs its store misses, with no store: in warm-prefix groups that share
// core streams (warm.go), at most workers cells at a time
// (engine.Workers). It calls each(k, res) once per spec as its group's
// run passes it (runGroup), with what a fresh sim.ForSpec(nil, specs[k],
// …) Sim returns from Warmup and Measure; res.Scheme is live only inside
// the call, and calls for different groups may run concurrently. An error
// from each ends its group's run, and RunSpecsEach returns it.
func RunSpecsEach(ctx context.Context, specs []spec.RunSpec, workers int, each func(k int, res sim.RunResult) error) error {
	cells, err := SweepRequest{Specs: specs}.cells(0)
	if err != nil {
		return err
	}
	misses := make([]int, len(cells))
	for i := range misses {
		misses[i] = i
	}
	p, err := planWarm(cells, misses)
	if err != nil {
		return err
	}
	defer p.release()
	_, err = engine.Map(ctx, engine.Workers(workers), len(cells), func(ctx context.Context, k int) (struct{}, error) {
		_, err := p.run(ctx, k, &discardShares, each)
		return struct{}{}, err
	})
	return err
}

// SweepList is the paginated reply of GET /v1/sweeps.
type SweepList struct {
	// Sweeps holds the page in submission order.
	Sweeps []SweepStatus `json:"sweeps,omitempty"`
	// NextCursor, when non-empty, fetches the next page via ?cursor=.
	// The cursor is the last returned ID; treat it as opaque.
	NextCursor string `json:"next_cursor,omitempty"`
}

// State is a sweep lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// SweepResult is the deterministic payload of a completed sweep. The
// server assembles it from raw per-cell bytes rather than marshaling this
// struct, but the JSON is the same; cmd/bmsim -json marshals it directly.
type SweepResult struct {
	// Request echoes the canonical form of the submitted request (aliases
	// resolved, defaults explicit) — the exact value the sweep hash
	// covers, so equal hashes guarantee equal result bytes.
	Request SweepRequest `json:"request"`
	// Cells holds one result per cell in request order (mixes outermost
	// in the cross-product form).
	Cells []CellResult `json:"cells"`
}

// CellResult reports one simulation cell.
type CellResult struct {
	Mix               string  `json:"mix"`
	Scheme            string  `json:"scheme"`
	HitRate           float64 `json:"hit_rate"`
	AvgLatencyCycles  float64 `json:"avg_latency_cycles"`
	LocatorHitRate    float64 `json:"locator_hit_rate,omitempty"`
	MetaRowHitRate    float64 `json:"meta_row_hit_rate,omitempty"`
	SmallFraction     float64 `json:"small_block_fraction,omitempty"`
	StackedRowHitRate float64 `json:"stacked_row_hit_rate"`
	OffchipReadBytes  int64   `json:"offchip_read_bytes"`
	OffchipWriteBytes int64   `json:"offchip_write_bytes"`
	WastedFetchBytes  int64   `json:"wasted_fetch_bytes"`
	EnergyPerAccessNJ float64 `json:"energy_per_access_nj"`
	TotalCycles       int64   `json:"total_cycles"`
	ANTT              float64 `json:"antt,omitempty"`
	// TenantANTT and PerTenant attribute a multi-tenant cell to its tenant
	// streams (absent on single-tenant mixes). TenantANTT is the mean
	// per-tenant slowdown relative to the best-served tenant
	// (stats.TenantSlowdowns).
	TenantANTT float64        `json:"tenant_antt,omitempty"`
	PerTenant  []TenantResult `json:"per_tenant,omitempty"`
	PerCore    []CoreResult   `json:"per_core"`
}

// TenantResult is the per-tenant slice of a multi-tenant cell.
type TenantResult struct {
	Tenant           int     `json:"tenant"`
	Accesses         int64   `json:"accesses"`
	HitRate          float64 `json:"hit_rate"`
	AvgLatencyCycles float64 `json:"avg_latency_cycles"`
	// Slowdown is this tenant's average latency normalized to the
	// best-served tenant's (>= 1; exactly 1 for the best tenant).
	Slowdown float64 `json:"slowdown"`
}

// CoreResult is the per-core slice of a cell.
type CoreResult struct {
	Core         int     `json:"core"`
	Benchmark    string  `json:"benchmark"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	IPC          float64 `json:"ipc"`
	HitRate      float64 `json:"hit_rate"`
}

// NewCellResult flattens a sim run into the wire schema. scheme is the
// canonical CLI name ("bimodal", "alloy", ...), not the scheme's display
// name, so results join back to request fields.
func NewCellResult(scheme string, res sim.RunResult) CellResult {
	r := res.Report
	c := CellResult{
		Mix:               res.Mix,
		Scheme:            scheme,
		HitRate:           r.HitRate(),
		AvgLatencyCycles:  r.AvgLatency(),
		LocatorHitRate:    r.LocatorHitRate(),
		MetaRowHitRate:    r.MetaRowHitRate(),
		SmallFraction:     r.SmallFraction,
		StackedRowHitRate: r.Stacked.RowHitRate(),
		OffchipReadBytes:  r.OffchipReadBytes,
		OffchipWriteBytes: r.OffchipWriteBytes,
		WastedFetchBytes:  r.WastedFetchBytes,
		EnergyPerAccessNJ: energy.PerAccess(res.Energy, r.Accesses),
		TotalCycles:       res.TotalCycles(),
		ANTT:              res.ANTT,
	}
	if len(res.PerTenant) > 0 {
		shares := make([]stats.TenantShare, len(res.PerTenant))
		for i, t := range res.PerTenant {
			shares[i] = stats.TenantShare{Accesses: t.Accesses, Reads: t.Reads, Hits: t.Hits, LatencySum: t.LatencySum}
		}
		slow, antt := stats.TenantSlowdowns(shares)
		c.TenantANTT = antt
		for i, t := range res.PerTenant {
			c.PerTenant = append(c.PerTenant, TenantResult{
				Tenant:           t.Tenant,
				Accesses:         t.Accesses,
				HitRate:          shares[i].HitRate(),
				AvgLatencyCycles: shares[i].AvgLatency(),
				Slowdown:         slow[i],
			})
		}
	}
	for _, pc := range res.PerCore {
		hr := 0.0
		if pc.Accesses > 0 {
			hr = float64(pc.Hits) / float64(pc.Accesses)
		}
		c.PerCore = append(c.PerCore, CoreResult{
			Core:         pc.Core,
			Benchmark:    pc.Benchmark,
			Cycles:       pc.Cycles,
			Instructions: pc.Insts,
			IPC:          pc.IPC(),
			HitRate:      hr,
		})
	}
	return c
}

// Event is one SSE payload on GET /v1/sweeps/{id}/events: a state
// transition or a completed cell.
type Event struct {
	// Type is "state" or "cell".
	Type string `json:"type"`
	// State is set on state events.
	State State `json:"state,omitempty"`
	// Cell is the completed cell's label on cell events ("Q7 bimodal").
	Cell string `json:"cell,omitempty"`
	// Done/Total track cell progress.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Origin says what answered a cell event: "run" (simulated), "store"
	// (served from the content-addressed result store) or "warm" (read
	// off the run of another cell sharing its warm prefix —
	// byte-identical to "run", but that run was reused).
	Origin string `json:"origin,omitempty"`
	// Error carries the failure reason on terminal failed states.
	Error string `json:"error,omitempty"`
}

// cellSpec is one validated run spec with its resolved mix, ready to run.
type cellSpec struct {
	mix workloads.Mix
	rs  spec.RunSpec // canonical
}

// label identifies the cell in progress events.
func (c cellSpec) label() string { return c.mix.Name + " " + c.rs.Scheme }

// cells expands a canonical request into its simulation cells — explicit
// specs in order, or mixes × schemes with mixes outermost. maxCells <= 0
// disables the size bound.
func (r SweepRequest) cells(maxCells int) ([]cellSpec, error) {
	if len(r.Specs) > 0 {
		if maxCells > 0 && len(r.Specs) > maxCells {
			return nil, fmt.Errorf("service: %d cells exceed the per-sweep limit of %d", len(r.Specs), maxCells)
		}
		out := make([]cellSpec, 0, len(r.Specs))
		for _, rs := range r.Specs {
			mix, err := workloads.MixForSpec(rs)
			if err != nil {
				return nil, err
			}
			out = append(out, cellSpec{mix: mix, rs: rs})
		}
		return out, nil
	}
	if maxCells > 0 && len(r.Mixes)*len(r.Schemes) > maxCells {
		return nil, fmt.Errorf("service: %d cells exceed the per-sweep limit of %d", len(r.Mixes)*len(r.Schemes), maxCells)
	}
	out := make([]cellSpec, 0, len(r.Mixes)*len(r.Schemes))
	for _, mixName := range r.Mixes {
		mix, err := workloads.ByName(mixName)
		if err != nil {
			return nil, err
		}
		for _, schemeName := range r.Schemes {
			rs := spec.RunSpec{Scheme: schemeName, Mix: mixName, Options: r.Options, Seed: r.Seed}
			out = append(out, cellSpec{mix: mix, rs: rs})
		}
	}
	return out, nil
}
