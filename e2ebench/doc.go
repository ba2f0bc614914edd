// Command e2ebench is the end-to-end benchmark of the Bi-Modal DRAM cache
// simulator and the service around it. It turns run specs into the paper's
// numbers the way users do, through public entry points only
// (service.RunCellSpec, and the HTTP sweep API of service.New), and reports
// what they would see: how fast results come back and what the results say.
//
// Run it from the root of the repository; it builds itself into
// .bench_build/:
//
//	bash e2ebench/run.sh --workload q7-bimodal --seed 1 --seconds 25 --trace 0
//
// or from this directory with go run . and the same flags. Without
// --workload it runs every workload in turn. It prints one line per metric,
// with its unit and sample count, and last one JSON object:
//
//	{"correct": true, "attempted": 263, "failed": 0, "metrics": {...}}
//
// With --trace 1 it prints the per-layer metrics instead.
//
// # Load
//
// Each workload is a closed loop with one caller in flight, in one process
// (the sweep server runs one sweep at a time, one cell at a time, for one
// HTTP connection): the next unit is issued only when the previous one
// returned, as cmd/paper and bmsubmit -follow do. A unit is one cell, or for
// service-sweep one sweep. Unit k uses seed seed<<20+k, so the same seed
// gives the same inputs and nearby seeds share none. An untimed priming
// unit with a fixed seed comes first, then a garbage collection, then units
// until --seconds have passed and at least 100 ran (so that the p90 has 10
// samples beyond it).
//
// Host times are scaled to a reference host speed (see host.go): every
// unit's wall time is divided by the time of a fixed reference loop run
// around it and multiplied by the loop's nominal 1 ms. On a shared 2-CPU
// VM whose speed drifted by a factor of 1.6 within minutes, raw medians
// spread by a fifth to a third from run to run; scaled, by 2-10%. The raw
// median wall time and reference loop time are printed beside the
// metrics.
//
// # Workloads
//
//	q7-bimodal       bimodal on Q7, 10000 accesses per core, cache/16.
//	                 The paper's scheme on its irregular mix: two thirds of
//	                 accesses hit and small blocks are common, so the core
//	                 cache, way locator and predictor do most of the work.
//	q2-alloy-stream  alloy on Q2, 20000 accesses per core, cache/16.
//	                 Streaming and miss-heavy (two thirds miss) with
//	                 writebacks, so the DRAM miss path and off-chip fills
//	                 dominate. Alloy never calls the core cache: a change to
//	                 it must leave this workload unchanged.
//	dc8-tenants      bimodal on 8 cores each interleaving kvstore x2,
//	                 webserve and scan with 5% of accesses on 64 shared
//	                 pages, 10000 accesses per core, cache/16. The 8-core
//	                 dispatch heap, the tenant interleaver (the costliest
//	                 generator), per-tenant attribution, 4 stacked channels.
//	service-sweep    sweeps of 12 tiny cells (200 or 300 accesses per core,
//	                 400 warmup, cache/64) over HTTP to an in-process server
//	                 with one worker and serial fan-out, followed over SSE.
//	                 4 cells repeat the previous sweep (store hits) and 8
//	                 are new: Q1 and Q7 under alloy and bimodal at two
//	                 lengths. The alloy pairs share a warm prefix, so 2 cells
//	                 restore a snapshot and 6 run cold. Queue, store,
//	                 snapshots, encoding and HTTP dominate; the simulator's
//	                 loop is small.
//
// The sweep server keeps its results in two generations of store.Mem of 32
// blobs each: the default store keeps every 300 KB warm snapshot and would
// exhaust memory within a run.
//
// # End-to-end metrics
//
//	cells_per_s              cells/s     cells ÷ the units' scaled time
//	accesses_per_s           accesses/s  median over units of quota
//	                                     accesses (cores × (measured +
//	                                     warmup) per cell) ÷ scaled time
//	latency_ms_p50, _p90     ms          scaled unit time; a sweep's runs
//	                                     from submit to its result in hand
//	setup_s                  s           median of 15 scaled cold starts: a
//	                                     fresh sim.NewSim per distinct
//	                                     geometry running its first cell,
//	                                     and for service-sweep service.New
//	                                     until /healthz answers
//	heap_live_mb             MB          heap live after unit 100, after a
//	                                     forced collection
//	allocs_per_cell          allocs      mallocs during the units ÷ cells
//	hit_rate                 ratio       simulated, mean over the cells of
//	avg_read_latency_cycles  cycles      the first 100 units, so they
//	offchip_mb_per_cell      MB          repeat exactly for a seed; ipc is
//	ipc                      inst/cycle  the mean of per-core IPC
//
// The bounds in BENCHMARK.json come from the spread between quartiles of
// ten runs with ten seeds, as a share of their median. The four host-time
// metrics and setup_s are bound at 0.25, the most a bound may be: even
// scaled, their spreads were 2-4% on most sets of runs but reached 7-10%
// on q7-bimodal while the host was busiest, and 13% for setup_s.
// heap_live_mb (spread under 2%) is bound at 0.1 and allocs_per_cell
// (under 1%) at 0.05. The simulated metrics move only when results change,
// which the digest checks catch first; their bounds of 0.1 cover the
// spread between seeds (up to 2%).
//
// # Correctness
//
// A unit fails on an error or a sweep that does not complete. Beyond that:
//
//   - the priming unit's result bytes must match their digest in
//     golden.json on every run, and at seed 1 so must units 1-16;
//     a mismatch fails every unit;
//   - the first and last cells of a run must equal a fresh, unpooled
//     sim.NewSim run of the same spec, and the cells of a sweep must equal
//     in-process service.RunCellSpec;
//   - in the traced run, every unit run again untraced and traced must
//     equal the untraced run's bytes.
//
// After a deliberate change of result bytes, regenerate golden.json with
// go test -run TestGolden -update in this directory.
//
// # Traced run
//
// With --trace 1 the untraced loop runs for half of --seconds, then the
// priming unit and units 1-10 (1-40 for service-sweep) run again twice
// each, first untraced and then traced, on runners of their own. The spans
// are kept in memory and written as JSONL to
// .bench_build/spans-<workload>.jsonl: one {id, name, start_ns, end_ns,
// parent, cell} record per span, parent -1 for a root, cell the unit.
//
// Cells are traced on an engine built from the constructors sim.NewSim
// uses (mix.Generators, sim.FactoryForSpec, cpu.NewEngine) with every
// generator and the scheme wrapped, recycled with Engine.Reset and the
// scheme's Reset as a pooled sim.Sim is. Each cell is a "cell" span with
// children sim.pool_get, sim.warmup, sim.measure and sim.encode. Every
// 32nd trace generator Next and scheme Access call is timed: on a 2-CPU
// x86-64 VM a clock read cost about 45-55 ns, as much as a Next, so timing
// every call would double the cell. Estimates scale the timed
// calls' mean, less one clock read, by the call count. The last traced
// cell also records its timed calls as trace.next, dramcache.hit and
// dramcache.miss spans under its phase, and its request stream, which is
// then replayed through a fresh core.Cache with the same parameters: the
// functional cache without DRAM timing. The replay must hit exactly as the
// cell did.
//
// The wrappers cost the traced cells 5-10%, most on q2-alloy-stream, whose
// accesses are the cheapest. Two thirds of that is the generator wrapper:
// trace.Access has five fields, one more than the compiler keeps in
// registers, so the wrapper copies every access through its stack frame.
// An engine assembled the same way without the wrappers costs under 2%.
// tracing.overhead_frac, a median over only 10 pairs, read 0.01-0.07 on
// 25 s runs but up to 0.17 on a busy host; it is there to judge the
// per-layer times by, not to bound them.
//
// A sweep is a "sweep" span with children http.submit, service.queue
// (submit returned until the running event arrived), service.cells,
// service.tail (last cell event until the completed event) and
// http.result, all seen from the client, plus a store.get or store.put
// span for every call the server makes into its store, which is wrapped.
// /metrics is scraped before and after the traced sweeps.
//
// The run prints, per span name, the mean time and self time per unit:
// a span's self time is its duration less what its children cover. The
// per-access spans are left out of that table, since they cover only 1 call
// in 32; cpu.dispatch_ns accounts for them by estimate instead.
//
// # Per-layer metrics and what they should move
//
// A layer a workload never calls reads 0, and the traced cell metrics are
// 0 on service-sweep, whose cells run inside the server where the
// benchmark cannot wrap them.
//
//	trace      trace.next_ns, trace.calls_per_cell
//	           moves accesses_per_s; most in dc8-tenants
//	cpu        cpu.dispatch_ns (phase time less the estimated Next and
//	           Access time, per Access), cpu.useful_frac (quota ÷ Access
//	           calls: finished cores keep running uncounted)
//	           moves accesses_per_s, latency; dc8-tenants against q2
//	dramcache  dramcache.access_ns, hit_ns, miss_ns, miss_frac,
//	           timing_ns (access_ns less core.access_ns)
//	           moves accesses_per_s; the miss path in q2-alloy-stream,
//	           the hit path in q7-bimodal
//	core       core.access_ns (the replay), locator_hit_rate,
//	           small_block_frac, fetch_useful_frac (1 − wasted ÷ off-chip
//	           read bytes)
//	           moves accesses_per_s in q7-bimodal and dc8-tenants; no
//	           calls in q2-alloy-stream
//	dram       dram.stacked_ops_per_access, offchip_ops_per_access,
//	           stacked_row_hit_rate, meta_row_hit_rate, refreshes_per_cell,
//	           all from the schemes' reports
//	           moves accesses_per_s; most in q2-alloy-stream
//	sim        sim.pool_get_ms, pool_hit_frac, warmup_ms, measure_ms,
//	           encode_ms
//	           moves cells_per_s; pool get is under 1% of a cell here
//	service    http.submit_ms, service.queue_ms, service.cell_ms (from
//	           bimodal_cell_seconds), service.tail_ms,
//	           service.origin_{run,warm,store}_frac, snapshot_hit_frac
//	           moves latency and cells_per_s in service-sweep only
//	store      store.get_us, put_us, hit_frac, put_kb
//	           moves latency in service-sweep only
//	harness    tracing.overhead_frac: median over units of traced ÷
//	           untraced scaled time, less 1
//
// # Comparing two commits
//
// Build the parent and the change, and run at least ten pairs, alternating
// which side runs first, with the same seeds and --seconds on both. Report
// each side's median and quartiles. Claim a gain only when the change wins
// at least nine pairs in ten (ties count for neither) and the medians
// differ by more than the parent's own spread between quartiles. Where a
// metric's run-to-run spread is wider than its bound, report it as
// unresolved rather than unchanged. Use the traced run to show where the
// saving appears. The simulated metrics and allocs_per_cell must not move
// for a change that only speeds the simulator up.
//
// The model has not been validated against hardware, so no simulated
// number here comes with an error figure.
package main
