package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"drain/internal/experiments"
	"drain/internal/sim"
)

// figsParallelism is the experiments worker count for figs-quick: set
// explicitly so the workload does not change with the host's CPU count.
const figsParallelism = 2

// setupRepeats is how many times a workload repeats its set-up; setup_s
// is the median. Each set-up takes milliseconds, so many repeats are
// cheap and keep the median steady.
const setupRepeats = 31

// figResult is one figure's timing from one pass.
type figResult struct {
	id   string
	took time.Duration
}

// figsQuick regenerates every registry figure at quick scale, seed 1,
// and diffs each against the committed results/<fig>.md. It is fixed
// work, about 18 s on the reference host, whatever the run's --seconds.
func figsQuick(cfg config, m metrics, t *tally) error {
	setup, err := figsSetup()
	if err != nil {
		return err
	}
	goldens, err := loadGoldens(cfg.root)
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	var wall time.Duration
	for _, f := range figsPass(goldens, t, nil) {
		wall += f.took
	}
	cpu := cpuTime() - cpu0
	m.set("wall_s", "s", secs(wall))
	m.set("cpu_s", "s", secs(cpu))
	m.set("setup_s", "s", median(setup))
	// A job is one regeneration of every figure, what a researcher waits
	// for; a run makes one, so it is also the run's median.
	m.set("job_p50_ms", "ms", ms(wall))
	return nil
}

// figsSetup builds the quick-scale figure network (8x8 DRAIN mesh, 4
// faults) setupRepeats times; every synthetic figure builds networks of
// this kind, so its set-up cost shows here.
func figsSetup() ([]float64, error) {
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // start each build from a collected heap
		start := time.Now()
		r, err := sim.Build(sim.Params{Width: 8, Height: 8, Faults: 4, FaultSeed: 1, Scheme: sim.SchemeDRAIN, Seed: 1})
		if err != nil {
			return nil, err
		}
		out = append(out, secs(time.Since(start)))
		r.Close()
	}
	return out, nil
}

// loadGoldens reads the committed quick-scale figure of every registry
// experiment, with its took line stripped.
func loadGoldens(root string) (map[string]string, error) {
	out := map[string]string{}
	for _, e := range experiments.All() {
		data, err := os.ReadFile(filepath.Join(root, "results", e.ID+".md"))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", e.ID, err)
		}
		out[e.ID] = stripTook(string(data))
	}
	return out, nil
}

// figsPass runs every figure once, in ID order, at seed 1 (the seed of
// the committed goldens, so the workload's inputs never vary), and
// counts each figure that errs or differs from its golden as failed.
// With a tracer, each figure is a span under "experiments".
func figsPass(goldens map[string]string, t *tally, tr *tracer) []figResult {
	experiments.SetParallelism(figsParallelism)
	parent := tr.begin("experiments", -1)
	var out []figResult
	for _, e := range experiments.All() {
		sp := tr.begin("experiments."+e.ID, parent)
		start := time.Now()
		tables, err := e.Run(context.Background(), experiments.Quick, 1)
		var got string
		if err == nil {
			got = experiments.RenderFigure(e, tables)
		}
		took := time.Since(start)
		tr.end(sp)
		out = append(out, figResult{e.ID, took})
		switch {
		case err != nil:
			t.fail("%s: %v", e.ID, err)
		case stripTook(got) != goldens[e.ID]:
			t.fail("%s: rendered figure differs from results/%s.md", e.ID, e.ID)
		default:
			t.pass()
		}
	}
	tr.end(parent)
	return out
}
