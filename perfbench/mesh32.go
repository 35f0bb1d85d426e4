package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"drain/internal/core"
	"drain/internal/sim"
	"drain/internal/traffic"
)

// The mesh32-sweep workload: one irregular 32x32 mesh (32 random link
// faults drawn with a fixed fault seed, so every run simulates the same
// topology) under uniform traffic whose draws come from the benchmark
// seed. The epoch is short enough that drain windows fire at every
// point; the points sit well below, just below and past the ~0.042
// packets/node/cycle saturation of this mesh.
const (
	m32Side      = 32
	m32Faults    = 32
	m32FaultSeed = 1
	m32Epoch     = 1024
	m32Warmup    = 300
	m32Measure   = 1000
	// m32Passes is how many times the sweep runs.
	m32Passes = 3
)

// loadPoint is one offered rate of a sweep.
type loadPoint struct {
	name string
	rate float64
}

var m32Points = []loadPoint{{"low", 0.01}, {"mid", 0.035}, {"sat", 0.06}}

func m32Params(seed uint64) sim.Params {
	return sim.Params{
		Width: m32Side, Height: m32Side, Faults: m32Faults, FaultSeed: m32FaultSeed,
		Scheme: sim.SchemeDRAIN, Epoch: m32Epoch, Seed: seed,
	}
}

// pointRun is the untraced outcome of one rate point.
type pointRun struct {
	res               sim.SyntheticResult
	drain             core.Stats
	build, sweep, cpu time.Duration // cpu: process CPU time of the sweep
}

// runPoint follows sim.LoadSweep's shape for one rate: a fresh runner
// from sim.Build, then Runner.RunSyntheticContext, each timed.
func runPoint(p sim.Params, pt loadPoint) (pointRun, error) {
	var out pointRun
	start := time.Now()
	r, err := sim.Build(p)
	if err != nil {
		return out, err
	}
	defer r.Close()
	out.build = time.Since(start)
	pat, err := traffic.ByName("uniform", r.Graph.N(), p.Width)
	if err != nil {
		return out, err
	}
	start, cpu0 := time.Now(), cpuTime()
	out.res, err = r.RunSyntheticContext(context.Background(), pat, pt.rate, m32Warmup, m32Measure)
	out.sweep, out.cpu = time.Since(start), cpuTime()-cpu0
	if err != nil {
		return out, err
	}
	out.drain = r.Drain.Stats()
	return out, r.Net.CheckInvariants()
}

// mesh32Sweep runs the three-point sweep m32Passes times. It is fixed
// work, about 25 s with its set-up on the reference host, whatever the
// run's --seconds.
func mesh32Sweep(cfg config, m metrics, t *tally) error {
	// A job is one rate point, one RunSyntheticContext call; each reports
	// its fastest pass, which filters out a pass slowed by the host.
	var builds []float64
	best := make([]pointRun, len(m32Points))
	for pass := 0; pass < m32Passes; pass++ {
		for i, out := range sweepOnce(cfg.seed, t) {
			builds = append(builds, secs(out.build))
			if pass == 0 || out.sweep < best[i].sweep {
				best[i].sweep = out.sweep
			}
			if pass == 0 || out.cpu < best[i].cpu {
				best[i].cpu = out.cpu
			}
		}
	}
	var wall, cpu time.Duration
	var jobs []float64
	for _, b := range best {
		wall += b.sweep
		cpu += b.cpu
		jobs = append(jobs, ms(b.sweep))
	}
	m.set("wall_s", "s", secs(wall))
	m.set("cpu_s", "s", secs(cpu))
	m.set("setup_s", "s", median(builds))
	m.set("job_p50_ms", "ms", median(jobs))
	return nil
}

// sweepOnce runs the three points once, checking each.
func sweepOnce(seed uint64, t *tally) []pointRun {
	var outs []pointRun
	for _, pt := range m32Points {
		out, err := runPoint(m32Params(seed), pt)
		t.check("mesh32 "+pt.name, firstErr(err, checkPoint(seed, pt, out)))
		outs = append(outs, out)
		// Free this point's runner before the next one is built, so
		// collecting it neither overlaps the next point's timing nor
		// lets peak_rss_mib depend on when the collector ran.
		runtime.GC()
	}
	return outs
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

//go:embed digests.json
var digestsJSON []byte

// digests maps seed → point name → digest of that point's result.
func digests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	err := json.Unmarshal(digestsJSON, &d)
	return d, err
}

// digest is the SHA-256 of a point's SyntheticResult (noc.Counters
// included) in its JSON form.
func digest(res sim.SyntheticResult) string {
	data, err := json.Marshal(res)
	if err != nil {
		panic(err) // SyntheticResult holds only numbers and a bool
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkPoint verifies one rate point: exactly against the committed
// digest when this seed has one, and in every case against the facts
// every correct run must show — no fast-forward (so the traced replay
// is exact), a drain window fired, no deadlock, conservation of
// packets, and accepted load matching offered load below saturation.
func checkPoint(seed uint64, pt loadPoint, out pointRun) error {
	res := out.res
	c := res.Counters
	switch {
	case res.FastForwarded != 0:
		return fmt.Errorf("fast-forward skipped %d cycles", res.FastForwarded)
	case out.drain.Drains == 0 || c.Drains != out.drain.Drains:
		return fmt.Errorf("drain windows: controller %d, counters %d", out.drain.Drains, c.Drains)
	case res.Deadlocked:
		return fmt.Errorf("deadlocked at cycle %d", res.DeadlockCycle)
	case c.Ejected > c.Injected || c.Injected > c.Created:
		return fmt.Errorf("packet conservation: created %d injected %d ejected %d", c.Created, c.Injected, c.Ejected)
	case pt.name != "sat" && math.Abs(res.Accepted-pt.rate) > 0.05*pt.rate:
		return fmt.Errorf("accepted %.4f at offered %.3f below saturation", res.Accepted, pt.rate)
	}
	d, err := digests()
	if err != nil {
		return err
	}
	if want, ok := d[strconv.FormatUint(seed, 10)][pt.name]; ok && want != digest(res) {
		return fmt.Errorf("result digest %s differs from the committed %s", digest(res), want)
	}
	return nil
}

// recordDigest runs one pass for cfg.seed and writes its digests to
// <out>/digest-<seed>.json, for merging into digests.json.
func recordDigest(cfg config) error {
	rec := map[string]string{}
	for _, pt := range m32Points {
		out, err := runPoint(m32Params(cfg.seed), pt)
		if err = firstErr(err, checkPoint(cfg.seed, pt, out)); err != nil {
			return fmt.Errorf("%s: %w", pt.name, err)
		}
		rec[pt.name] = digest(out.res)
		runtime.GC()
	}
	data, err := json.MarshalIndent(map[string]map[string]string{strconv.FormatUint(cfg.seed, 10): rec}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("digest-%d.json", cfg.seed)), append(data, '\n'), 0o644)
}
