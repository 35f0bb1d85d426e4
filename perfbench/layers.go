package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"time"

	"drain/internal/coherence"
	"drain/internal/core"
	"drain/internal/drainpath"
	"drain/internal/noc"
	"drain/internal/routing"
	"drain/internal/sim"
	"drain/internal/stats"
	"drain/internal/traffic"
	"drain/internal/workload"
)

// The traced run. It plays every workload once, brackets the named one
// with process counters, and replays the simulator's driver loops from
// public calls with a span around each call. Each replay is checked to
// reproduce the untraced public call's counters exactly.

// replay is what a traced driver loop produced.
type replay struct {
	loop     int // span index of the loop
	cycles   int64
	routers  int
	counters noc.Counters
	drain    core.Stats
	lat      []int64 // measured network latencies
}

// replaySynthetic re-drives one synthetic run on r: the loop of
// sim.Runner.RunSyntheticContext without its idle fast-forward, which
// never opens at these loads (checkPoint asserts it), so the counters
// must match the untraced call exactly.
func replaySynthetic(tr *tracer, parent int, name string, r *sim.Runner, rate float64, warmup, measure int64) (replay, error) {
	out := replay{cycles: warmup + measure, routers: r.Graph.N()}
	pat, err := traffic.ByName("uniform", r.Graph.N(), r.Params.Width)
	if err != nil {
		return out, err
	}
	// Same seed, draw discipline and packet mix as RunSyntheticContext.
	gen := traffic.NewGeneratorMode(pat, rate, r.Params.Seed^0x1234, traffic.RNGExact, r.Graph.N())
	gen.CtrlFraction = max(0, r.Params.CtrlFraction)
	gen.DataFlits = r.Params.MaxFlits
	measuring := false
	r.Net.OnEject = func(p *noc.Packet) {
		if measuring {
			out.lat = append(out.lat, p.NetworkLatency())
		}
	}
	defer func() { r.Net.OnEject = nil }()
	out.loop = tr.begin(name, parent)
	for cyc := int64(0); cyc < out.cycles; cyc++ {
		if !r.Net.Frozen() {
			s := tr.begin("traffic.Tick", out.loop)
			gen.Tick(r.Net)
			tr.end(s)
		}
		s := tr.begin("noc.Step", out.loop)
		r.Net.Step()
		tr.end(s)
		s = tr.begin("core.TickScheme", out.loop)
		err := r.TickScheme()
		tr.end(s)
		if err != nil {
			return out, err
		}
		if cyc == warmup {
			measuring = true
		}
		s = tr.begin("noc.DiscardEjected", out.loop)
		r.Net.DiscardEjected()
		tr.end(s)
	}
	tr.end(out.loop)
	out.counters = r.Net.Counters
	if r.Drain != nil {
		out.drain = r.Drain.Stats()
	}
	return out, nil
}

// sameSynthetic checks a replay against the untraced public call.
func sameSynthetic(rp replay, res sim.SyntheticResult, drain core.Stats) error {
	var lat stats.Sample
	for _, v := range rp.lat {
		lat.Add(v)
	}
	switch {
	case !reflect.DeepEqual(rp.counters, res.Counters):
		return fmt.Errorf("replayed noc.Counters differ: %+v vs %+v", rp.counters, res.Counters)
	case rp.drain != drain:
		return fmt.Errorf("replayed core.Stats differ: %+v vs %+v", rp.drain, drain)
	case lat.Mean() != res.AvgLatency || lat.P99() != res.P99Latency:
		return fmt.Errorf("replayed latency %.3f/%d vs %.3f/%d", lat.Mean(), lat.P99(), res.AvgLatency, res.P99Latency)
	}
	return nil
}

// perCycle is a layer's time per simulated cycle, in ns.
func perCycle(tr *tracer, rp replay, name string) float64 {
	return float64(tr.total(rp.loop, name)) / float64(rp.cycles)
}

// perRouterCycle is noc.Step's time per router per cycle, in ns.
func perRouterCycle(tr *tracer, rp replay) float64 {
	return perCycle(tr, rp, "noc.Step") / float64(rp.routers)
}

// traceMesh32 replays each point of an untraced sweep on a fresh
// sim.Build, checks the replay against it, and reports the noc,
// traffic, core and stats layers plus the replay's overhead.
func traceMesh32(cfg config, tr *tracer, m metrics, t *tally, outs []pointRun) error {
	p := m32Params(cfg.seed)
	var untraced, traced time.Duration
	var builds []float64
	var drains, frozen int64
	var satLat []int64
	root := tr.begin("mesh32-sweep", -1)
	defer tr.end(root)
	for i, pt := range m32Points {
		out := outs[i]
		untraced += out.sweep
		bs := tr.begin("sim.Build", root)
		r, err := sim.Build(p)
		tr.end(bs)
		if err != nil {
			return err
		}
		builds = append(builds, ms(tr.dur(bs)))
		rp, err := replaySynthetic(tr, root, "replay."+pt.name, r, pt.rate, m32Warmup, m32Measure)
		r.Close()
		runtime.GC()
		if err != nil {
			return err
		}
		t.check("mesh32 "+pt.name+" traced replay", sameSynthetic(rp, out.res, out.drain))
		traced += tr.dur(rp.loop)
		m.set("noc.step_ns_per_router_cycle."+pt.name, "ns", perRouterCycle(tr, rp))
		m.set("noc.link_flits."+pt.name, "count", float64(rp.counters.LinkFlits))
		m.set("traffic.tick_ns_per_cycle."+pt.name, "ns", perCycle(tr, rp, "traffic.Tick"))
		switch pt.name {
		case "mid":
			m.set("core.tick_ns_per_cycle.mid", "ns", perCycle(tr, rp, "core.TickScheme"))
			m.set("noc.step_ns_per_router_cycle.m32", "ns", perRouterCycle(tr, rp))
		case "sat":
			satLat = rp.lat
		}
		drains += rp.drain.Drains
		frozen += rp.drain.FrozenCycles
	}
	m.set("sim.build_ms.m32", "ms", median(builds))
	m.set("core.drains", "count", float64(drains))
	m.set("core.frozen_cycles", "count", float64(frozen))
	m.set("trace.overhead_frac.mesh32", "ratio", float64(traced)/float64(untraced)-1)
	m.set("stats.sample_ms", "ms", timeSample(tr, satLat))
	return nil
}

// timeSample times the stats layer's work for one run: adding every
// measured latency to a stats.Sample and taking its mean and P99.
func timeSample(tr *tracer, lat []int64) float64 {
	var took []float64
	for i := 0; i < setupRepeats; i++ {
		s := tr.begin("stats.Sample", -1)
		var smp stats.Sample
		for _, v := range lat {
			smp.Add(v)
		}
		_, _ = smp.Mean(), smp.P99()
		tr.end(s)
		took = append(took, ms(tr.dur(s)))
	}
	return median(took)
}

// meshSizes is the size axis of the routing and noc layers. 64x64 is
// left out until routing tables stop being O(N²) (34.6 s / 5.97 GiB).
var meshSizes = []struct {
	name         string
	side, faults int
}{{"m8", 8, 2}, {"m16", 16, 8}, {"m32", m32Side, m32Faults}}

// traceSizes builds a routing table per mesh size (time and retained
// heap), finds the 32x32 drain path, and for 8x8 and 16x16 replays the
// mesh32 sweep's mid rate on the prebuilt table (32x32 is the sweep's
// own mid point).
func traceSizes(cfg config, tr *tracer, m metrics, t *tally) error {
	root := tr.begin("sizes", -1)
	defer tr.end(root)
	mid := m32Points[1]
	for _, sz := range meshSizes {
		p := m32Params(cfg.seed)
		p.Width, p.Height, p.Faults = sz.side, sz.side, sz.faults
		g, mesh, err := p.BuildGraph()
		if err != nil {
			return err
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		s := tr.begin("routing.NewTable."+sz.name, root)
		tab, err := routing.NewTable(g, mesh)
		tr.end(s)
		if err != nil {
			return err
		}
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		runtime.KeepAlive(tab)
		m.set("routing.new_table_ms."+sz.name, "ms", ms(tr.dur(s)))
		m.set("routing.table_mib."+sz.name, "MiB", (float64(ms1.HeapAlloc)-float64(ms0.HeapAlloc))/(1<<20))
		if sz.side == m32Side {
			s := tr.begin("drainpath.FindEulerian.m32", root)
			_, err := drainpath.FindEulerian(g)
			tr.end(s)
			if err != nil {
				return err
			}
			m.set("drainpath.eulerian_ms.m32", "ms", ms(tr.dur(s)))
			continue
		}
		p.RoutingTable = tab
		r, err := sim.BuildOn(g, mesh, p)
		if err != nil {
			return err
		}
		pat, err := traffic.ByName("uniform", r.Graph.N(), p.Width)
		if err != nil {
			return err
		}
		res, err := r.RunSyntheticContext(context.Background(), pat, mid.rate, m32Warmup, m32Measure)
		if err != nil {
			return err
		}
		drain := r.Drain.Stats()
		r.Close()
		if res.FastForwarded != 0 {
			t.fail("%s: fast-forward skipped %d cycles", sz.name, res.FastForwarded)
		}
		r, err = sim.BuildOn(g, mesh, p)
		if err != nil {
			return err
		}
		rp, err := replaySynthetic(tr, root, "replay."+sz.name, r, mid.rate, m32Warmup, m32Measure)
		r.Close()
		if err != nil {
			return err
		}
		t.check(sz.name+" traced replay", sameSynthetic(rp, res, drain))
		m.set("noc.step_ns_per_router_cycle."+sz.name, "ns", perRouterCycle(tr, rp))
	}
	return nil
}

// The app slice: a fig3-style PARSEC run on a faulty 8x8 mesh with
// unprotected adaptive routing (scheme none) and the coherence protocol
// on top. The profile, VC count and horizon complete without deadlock.
const (
	appOps       = 400
	appMaxCycles = 40_000
	appProfile   = "canneal"
)

func appParams(seed uint64) sim.Params {
	return sim.Params{
		Width: 8, Height: 8, Faults: 4, FaultSeed: 1, Scheme: sim.SchemeNone,
		Classes: 3, VNets: 3, VCsPerVN: 4, InjectCap: 16, MSHRs: 8, DerouteAfter: -1,
		Seed: seed,
	}
}

// traceApp runs the app slice untraced with Runner.RunAppContext, then
// replays its loop with spans around noc.Step, TickScheme and
// coherence.System.Tick, and checks the replay's counters.
func traceApp(cfg config, tr *tracer, m metrics, t *tally) error {
	prof := workload.MustGet(appProfile)
	r, err := sim.Build(appParams(cfg.seed))
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := r.RunAppContext(context.Background(), prof, appOps, appMaxCycles)
	untraced := time.Since(start)
	r.Close()
	if err != nil {
		return err
	}
	if !res.Completed || res.Deadlocked {
		t.fail("app slice: completed %v, deadlocked %v", res.Completed, res.Deadlocked)
	}

	r, err = sim.Build(appParams(cfg.seed))
	if err != nil {
		return err
	}
	defer r.Close()
	// Same construction as RunAppContext.
	sys, err := coherence.New(r.Net, coherence.Config{Gen: prof, OpsTarget: appOps, MSHRs: r.Params.MSHRs, Seed: r.Params.Seed ^ 0x517cc1b7})
	if err != nil {
		return err
	}
	sinks := make([]bool, coherence.NumClasses)
	sinks[coherence.ClassResp] = true
	opts := noc.LivenessOpts{EjectLiveByClass: sinks}
	loop := tr.begin("app", -1)
	var cycles, lastEject int64
	completed, deadlocked, suspect := false, false, false
	for cyc := int64(0); cyc < appMaxCycles; cyc++ {
		cycles++
		s := tr.begin("noc.Step", loop)
		r.Net.Step()
		tr.end(s)
		s = tr.begin("core.TickScheme", loop)
		err := r.TickScheme()
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("coherence.Tick", loop)
		sys.Tick()
		tr.end(s)
		if sys.Done() {
			completed = true
			break
		}
		// RunAppContext's deadlock watch (scheme none): two sweeps 512
		// cycles apart with no ejections in between confirm a deadlock.
		if cyc%512 == 511 {
			if r.Net.Counters.Ejected == lastEject && r.Net.HasDeadlock(opts) {
				if suspect {
					deadlocked = true
					break
				}
				suspect = true
			} else {
				suspect = false
			}
			lastEject = r.Net.Counters.Ejected
		}
	}
	tr.end(loop)
	switch {
	case !reflect.DeepEqual(r.Net.Counters, res.Counters):
		t.fail("app replay: noc.Counters differ")
	case sys.Stats() != res.Protocol:
		t.fail("app replay: coherence.Stats %+v vs %+v", sys.Stats(), res.Protocol)
	case completed != res.Completed || deadlocked != res.Deadlocked || r.Net.Cycle() != res.Runtime:
		t.fail("app replay: completed %v deadlocked %v at %d vs %v %v %d", completed, deadlocked, r.Net.Cycle(), res.Completed, res.Deadlocked, res.Runtime)
	default:
		t.pass()
	}
	rp := replay{loop: loop, cycles: cycles, routers: r.Graph.N()}
	m.set("noc.step_ns_per_router_cycle.app", "ns", perRouterCycle(tr, rp))
	m.set("coherence.tick_ns_per_cycle", "ns", perCycle(tr, rp, "coherence.Tick"))
	m.set("coherence.misses", "count", float64(res.Protocol.Misses))
	m.set("coherence.msgs_sent", "count", float64(res.Protocol.MsgsSent))
	m.set("trace.overhead_frac.app", "ratio", float64(tr.dur(loop))/float64(untraced)-1)
	return nil
}

// traceServe reports the server layer from one serve-mixed pass's
// replies, plus Request.Canonicalize+Key timed over the universe.
func traceServe(tr *tracer, m metrics, t *tally, p *servePass) error {
	verifyServe(p, t)
	var hit, miss, late []float64
	rejected := 0
	for i, r := range p.replies {
		late = append(late, ms(p.sent[i].late))
		switch {
		case r.status == http.StatusTooManyRequests:
			rejected++
		case r.cache == "hit":
			hit = append(hit, ms(p.sent[i].service))
		case r.cache == "miss":
			miss = append(miss, ms(p.sent[i].service))
		}
	}
	lateTail, _ := tail(late)
	jobTail, _ := tail(latencies(p))
	m.set("loadgen.job_p99_ms", "ms", jobTail)
	m.set("server.hit_ms_p50", "ms", median(hit))
	m.set("server.miss_ms_p50", "ms", median(miss))
	m.set("server.cache_hit_frac", "ratio", float64(len(hit))/float64(max(1, len(hit)+len(miss))))
	m.set("server.rejected_429", "count", float64(rejected))
	m.set("loadgen.late_p99_ms", "ms", lateTail)

	universe := serveUniverse()
	var per []float64
	for i := 0; i < setupRepeats; i++ {
		s := tr.begin("server.Canonicalize", -1)
		for _, req := range universe {
			c, err := req.Canonicalize()
			if err != nil {
				tr.end(s)
				return err
			}
			_ = c.Key()
		}
		tr.end(s)
		per = append(per, float64(tr.dur(s))/float64(time.Microsecond)/float64(len(universe)))
	}
	m.set("server.canonicalize_us", "us", median(per))
	return nil
}

// runTraced plays every workload once and replays every layer with
// spans. Each workload's own untraced work is bracketed with process
// CPU, allocation and GC counters when it is the named workload.
func runTraced(cfg config, workload string, m metrics, t *tally) error {
	tr := newTracer()
	var figs []figResult
	var outs []pointRun
	var pass *servePass
	parts := []struct {
		workload  string
		own, rest func() error
	}{
		{"figs-quick", func() error {
			goldens, err := loadGoldens(cfg.root)
			if err == nil {
				figs = figsPass(goldens, t, tr)
			}
			return err
		}, func() error {
			for _, f := range figs {
				m.set("experiments."+f.id+"_s", "s", secs(f.took))
			}
			return nil
		}},
		{"mesh32-sweep", func() error {
			outs = sweepOnce(cfg.seed, t)
			return nil
		}, func() error {
			return firstErr(traceMesh32(cfg, tr, m, t, outs), traceSizes(cfg, tr, m, t), traceApp(cfg, tr, m, t))
		}},
		{"serve-mixed", func() (err error) {
			pass, err = runServe(cfg)
			return err
		}, func() error { return traceServe(tr, m, t, pass) }},
	}
	for _, part := range parts {
		fmt.Fprintf(os.Stderr, "perfbench: traced %s\n", part.workload)
		// Collect the previous part's garbage so this part's GC count is
		// paced by its own heap, not by a 32x32 routing table freed before.
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		if err := part.own(); err != nil {
			return err
		}
		if part.workload == workload {
			cpu := cpuTime() - cpu0
			runtime.ReadMemStats(&ms1)
			m.set("process.cpu_s", "s", secs(cpu))
			m.set("go.mallocs", "count", float64(ms1.Mallocs-ms0.Mallocs))
			m.set("go.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC))
		}
		if err := part.rest(); err != nil {
			return err
		}
	}
	m.set("failed_frac", "ratio", t.failedFrac())
	return tr.write(traceFile(cfg, workload))
}
