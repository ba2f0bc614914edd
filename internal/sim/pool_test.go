package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"bimodal/internal/cpu"
	"bimodal/internal/dramcache"
	"bimodal/internal/energy"
	"bimodal/internal/spec"
	"bimodal/internal/workloads"
)

// runSim drives a Sim through the standard warmup+measure sequence.
func runSim(t *testing.T, s *Sim) RunResult {
	t.Helper()
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	res, err := s.Measure(context.Background())
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	return res
}

// ownTerms runs s's standalone terms at its own measured quota, one per
// core slot in mix order.
func ownTerms(ctx context.Context, s *Sim) ([]cpu.CoreResult, error) {
	return s.standalone(ctx, []Quota{{Accesses: s.o.AccessesPerCore}})
}

// run runs the mix on a fresh Sim.
func run(t *testing.T, mix workloads.Mix, factory Factory, o Options) RunResult {
	t.Helper()
	return runSim(t, NewSim(mix, factory, o))
}

// anttRun runs the mix on a fresh Sim whose Measure reports ANTT, as
// ForSpec draws one for an ANTT spec, and returns the ANTT and the
// multiprogrammed result.
func anttRun(ctx context.Context, mix workloads.Mix, factory Factory, o Options) (float64, RunResult, error) {
	s := NewSim(mix, factory, o)
	s.antt = true
	if err := s.Warmup(ctx); err != nil {
		return 0, RunResult{}, err
	}
	res, err := s.Measure(ctx)
	return res.ANTT, res, err
}

// marshalResult serializes the comparable portion of a run result (the
// Scheme field is a live instance, not a value).
func marshalResult(r RunResult) ([]byte, error) {
	return json.Marshal(struct {
		Mix       string
		PerCore   []cpu.CoreResult
		PerTenant []cpu.TenantResult
		Report    dramcache.Report
		Energy    energy.Breakdown
	}{r.Mix, r.PerCore, r.PerTenant, r.Report, r.Energy})
}

func encodeResult(t *testing.T, r RunResult) []byte {
	t.Helper()
	b, err := marshalResult(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestPooledRunMatchesFresh is the reuse-safety golden test: for every
// registered scheme, a run on a pooled, Reset simulator must be
// byte-identical to a run on a freshly constructed one — including across
// a seed change, which exercises every re-seeding path.
func TestPooledRunMatchesFresh(t *testing.T) {
	mix := workloads.MustByName("Q1")
	for _, name := range spec.Names() {
		t.Run(name, func(t *testing.T) {
			o1 := Options{AccessesPerCore: 1500, Seed: 5, CacheBytes: 2 << 20}
			o2 := o1
			o2.Seed = 9
			factory := paperFactory(t, name)

			fresh1 := encodeResult(t, runSim(t, NewSim(mix, factory, o1)))
			fresh2 := encodeResult(t, runSim(t, NewSim(mix, factory, o2)))
			if bytes.Equal(fresh1, fresh2) {
				t.Fatalf("seeds 5 and 9 produced identical results; seed change is not observable")
			}

			pool := NewRunPool(2)
			s := pool.Get(name, mix, factory, o1)
			if got := encodeResult(t, runSim(t, s)); !bytes.Equal(got, fresh1) {
				t.Errorf("first pooled run diverges from fresh run")
			}
			pool.Put(s)

			s2 := pool.Get(name, mix, factory, o2)
			if hits, _ := pool.Stats(); hits != 1 {
				t.Fatalf("second Get was not served by reuse (hits=%d): Reset declined", hits)
			}
			if got := encodeResult(t, runSim(t, s2)); !bytes.Equal(got, fresh2) {
				t.Errorf("reused run (seed %d after seed %d) diverges from fresh run", o2.Seed, o1.Seed)
			}
			pool.Put(s2)
		})
	}
}

// TestPooledANTTTwinSharesKey draws a pooled Sim for an ANTT spec, then
// for its non-ANTT twin: the twin is a pool hit on the same simulator, and
// it reports no ANTT, since ForSpec sets the flag per draw.
func TestPooledANTTTwinSharesKey(t *testing.T) {
	mix := workloads.MustByName("Q1")
	twin, err := spec.RunSpec{Scheme: "alloy", Mix: "Q1", Seed: 3,
		Options: spec.Options{AccessesPerCore: 1500, CacheDivisor: 64}}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	antt := twin
	antt.Options.ANTT = true
	pool := NewRunPool(2)
	s, err := ForSpec(pool, antt, mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := runSim(t, s); res.ANTT <= 1 {
		t.Errorf("ANTT draw: ANTT = %v, want > 1", res.ANTT)
	}
	pool.Put(s)

	s2, err := ForSpec(pool, twin, mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := pool.Stats(); hits != 1 || misses != 1 || s2 != s {
		t.Fatalf("twin draw: hits=%d misses=%d, same Sim %v; want one key, a hit", hits, misses, s2 == s)
	}
	res := runSim(t, s2)
	if res.ANTT != 0 {
		t.Errorf("twin draw: ANTT = %v, want 0", res.ANTT)
	}
	fresh, err := ForSpec(nil, twin, mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResult(t, res), encodeResult(t, runSim(t, fresh))) {
		t.Error("twin drawn after an ANTT run diverges from a fresh run")
	}
}

// TestRunPoolGeometryMismatch verifies a changed geometry never reuses a
// simulator (distinct key), and a direct Reset with changed geometry
// declines.
func TestRunPoolGeometryMismatch(t *testing.T) {
	mix := workloads.MustByName("Q1")
	factory := paperFactory(t, "bimodal")
	o := Options{AccessesPerCore: 500, Seed: 1, CacheBytes: 2 << 20}
	pool := NewRunPool(4)

	s := pool.Get("bimodal", mix, factory, o)
	runSim(t, s)
	pool.Put(s)

	bigger := o
	bigger.CacheBytes = 4 << 20
	if s.Reset(mix, bigger) {
		t.Error("Reset accepted a geometry change")
	}
	s2 := pool.Get("bimodal", mix, factory, bigger)
	if hits, _ := pool.Stats(); hits != 0 {
		t.Errorf("geometry change was served from the pool (hits=%d)", hits)
	}
	runSim(t, s2)
}

// TestRunPoolEvictsLongestIdle fills a two-slot pool with two one-off
// geometries, then cycles a third: a full Put drops the longest-idle
// simulator instead of the one returned, so the third geometry is reused
// from its second Get on.
func TestRunPoolEvictsLongestIdle(t *testing.T) {
	mix := workloads.MustByName("Q1")
	factory := paperFactory(t, "alloy")
	pool := NewRunPool(2)
	cycle := func(cacheBytes uint64) {
		s := pool.Get("alloy", mix, factory, Options{AccessesPerCore: 100, Seed: 1, CacheBytes: cacheBytes})
		runSim(t, s)
		pool.Put(s)
	}
	cycle(1 << 20)
	cycle(2 << 20)
	for i := 0; i < 3; i++ {
		cycle(4 << 20)
	}
	if hits, misses := pool.Stats(); hits != 2 || misses != 3 {
		t.Errorf("hits %d, misses %d; want 2 and 3", hits, misses)
	}
}

// TestRunPoolConcurrent hammers one shared pool from concurrent workers —
// the service's usage pattern — and checks every pooled result against the
// serially computed fresh result for its (scheme, seed) cell. Run with
// -race this also proves the pool's synchronization.
func TestRunPoolConcurrent(t *testing.T) {
	mix := workloads.MustByName("Q1")
	schemes := []string{"bimodal", "alloy"}
	factories := map[string]Factory{}
	for _, name := range schemes {
		factories[name] = paperFactory(t, name)
	}
	seeds := []uint64{2, 11}
	base := Options{AccessesPerCore: 400, CacheBytes: 1 << 20}

	want := make(map[string][]byte)
	for _, name := range schemes {
		for _, seed := range seeds {
			o := base
			o.Seed = seed
			key := fmt.Sprintf("%s/%d", name, seed)
			want[key] = encodeResult(t, runSim(t, NewSim(mix, factories[name], o)))
		}
	}

	pool := NewRunPool(4)
	const workers = 4
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := schemes[(w+i)%len(schemes)]
				seed := seeds[i%len(seeds)]
				o := base
				o.Seed = seed
				s := pool.Get(name, mix, factories[name], o)
				if err := s.Warmup(context.Background()); err != nil {
					errs <- err
					return
				}
				res, err := s.Measure(context.Background())
				if err != nil {
					errs <- err
					return
				}
				got, err := marshalResult(res)
				if err != nil {
					errs <- err
					return
				}
				key := fmt.Sprintf("%s/%d", name, seed)
				if !bytes.Equal(got, want[key]) {
					errs <- fmt.Errorf("worker %d iter %d: pooled %s diverges from fresh", w, i, key)
					return
				}
				pool.Put(s)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hits, misses := pool.Stats()
	if hits == 0 {
		t.Errorf("no pooled reuse happened (hits=%d misses=%d)", hits, misses)
	}
}
