package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 25, "how long the untraced run measures")
	traced := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics instead")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	goldens, err := loadGolden()
	if err != nil {
		fail(err)
	}
	ws := workloadTable
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fail(err)
		}
		ws = []workload{w}
	}
	correct := true
	for _, w := range ws {
		g, ok := goldens[w.name]
		if !ok {
			fail(fmt.Errorf("golden.json has no digests for %s", w.name))
		}
		// The deadline keeps a run that stalls from outliving the 180 s a
		// benchmark run may take.
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		res, err := run(ctx, config{
			w:       w,
			seed:    *seed,
			seconds: *seconds,
			trace:   *traced == 1,
			scale:   1,
			spans:   filepath.Join(".bench_build", "spans-"+w.name+".jsonl"),
			golden:  &g,
		})
		cancel()
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		report(res, *traced == 1)
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// report writes the notes and one line per metric, with its sample count,
// then the result as one JSON line.
func report(res result, traced bool) {
	for _, l := range res.lines {
		fmt.Println(l)
	}
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Printf("%-28s %16.6g %-11s n=%d\n", d.name, m.Value, m.Unit, m.n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}
