package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"bimodal/internal/workloads"
)

func TestRunContextCancelled(t *testing.T) {
	mix := workloads.MustByName("Q1")
	o := Options{AccessesPerCore: 50_000_000, Seed: 1, CacheDivisor: 8}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := NewSim(mix, paperFactory(t, "alloy"), o).Warmup(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Warmup on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestRunStandaloneContextParallelMatchesSerial(t *testing.T) {
	mix := workloads.MustByName("Q3")
	o := Options{AccessesPerCore: 2_000, Seed: 7, CacheDivisor: 8}
	o.Workers = 1
	serial, err := ownTerms(context.Background(), NewSim(mix, paperFactory(t, "alloy"), o))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.NumCPU()} {
		o.Workers = workers
		got, err := ownTerms(context.Background(), NewSim(mix, paperFactory(t, "alloy"), o))
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], got[i]) {
				t.Errorf("workers=%d: standalone run %d differs from serial", workers, i)
			}
		}
	}
}

func TestANTTContextParallelMatchesSerial(t *testing.T) {
	mix := workloads.MustByName("Q2")
	o := Options{AccessesPerCore: 2_000, Seed: 3, CacheDivisor: 8}
	o.Workers = 1
	serialANTT, serialMulti, err := anttRun(context.Background(), mix, paperFactory(t, "alloy"), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = runtime.NumCPU()
	parANTT, parMulti, err := anttRun(context.Background(), mix, paperFactory(t, "alloy"), o)
	if err != nil {
		t.Fatal(err)
	}
	if serialANTT != parANTT {
		t.Errorf("ANTT: serial %v != parallel %v", serialANTT, parANTT)
	}
	serialMulti.Scheme, parMulti.Scheme = nil, nil
	if !reflect.DeepEqual(serialMulti, parMulti) {
		t.Error("multiprogrammed result differs between serial and parallel ANTT")
	}
}

func TestANTTContextCancelled(t *testing.T) {
	mix := workloads.MustByName("Q1")
	o := Options{AccessesPerCore: 50_000_000, Seed: 1, CacheDivisor: 8, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ownTerms(ctx, NewSim(mix, paperFactory(t, "alloy"), o)); !errors.Is(err, context.Canceled) {
		t.Errorf("standalone on cancelled ctx: err = %v, want context.Canceled", err)
	}
}
