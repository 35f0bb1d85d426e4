package sim

import (
	"context"
	"fmt"
	"io"

	"drain/internal/coherence"
	"drain/internal/noc"
	"drain/internal/stats"
	"drain/internal/traffic"
	"drain/internal/workload"
)

// TraceHeader is the CSV header emitted before per-packet trace records.
const TraceHeader = "id,src,dst,class,flits,created,injected,ejected,hops,misroutes,drain_hops,spin_hops"

// tracer writes one CSV record per ejected packet to w.
func tracer(w io.Writer) func(*noc.Packet) {
	fmt.Fprintln(w, TraceHeader)
	return func(p *noc.Packet) {
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			p.ID, p.Src, p.Dst, p.Class, p.Flits,
			p.CreatedAt, p.InjectedAt, p.EjectedAt,
			p.Hops, p.Misroutes, p.DrainHops, p.SpinHops)
	}
}

// SyntheticResult summarizes an open-loop synthetic-traffic run.
type SyntheticResult struct {
	Offered       float64 // requested injection rate, packets/node/cycle
	Accepted      float64 // measured ejection rate, packets/node/cycle
	AvgLatency    float64 // mean network latency (cycles)
	P99Latency    int64
	AvgHops       float64
	MisroutesPerK float64 // misroutes per 1000 delivered packets
	Deadlocked    bool    // a persistent deadlock was observed (SchemeNone)
	DeadlockCycle int64
	Counters      noc.Counters
	Cycles        int64
	// RNGMode is always traffic.RNGExact.
	//
	// Deprecated: kept only so the JSON form of a result, which
	// perfbench's mesh32-sweep digests hash, stays unchanged.
	RNGMode traffic.RNGMode
	// FastForwarded counts the cycles the idle fast-forward jumped over
	// instead of stepping.
	FastForwarded int64
}

// RunSynthetic drives the runner's network with the given pattern and
// rate for warmup+measure cycles, measuring only the post-warmup window.
// For SchemeNone the run additionally watches for persistent deadlocks
// and stops early when one is confirmed.
func (r *Runner) RunSynthetic(pattern traffic.Pattern, rate float64, warmup, measure int64) (SyntheticResult, error) {
	return r.RunSyntheticContext(context.Background(), pattern, rate, warmup, measure)
}

// RunSyntheticContext is RunSynthetic with cancellation: the step loop
// polls ctx every noc.CancelCheckEvery cycles and returns a
// cancellation error (wrapping ctx.Err()) within that cycle bound. With
// context.Background() the results are byte-identical to RunSynthetic.
func (r *Runner) RunSyntheticContext(ctx context.Context, pattern traffic.Pattern, rate float64, warmup, measure int64) (SyntheticResult, error) {
	res := SyntheticResult{Offered: rate}
	gen := traffic.NewGenerator(pattern, rate, r.Params.Seed^0x1234)
	gen.CtrlFraction = max(0, r.Params.CtrlFraction)
	gen.DataFlits = r.Params.MaxFlits
	var lat stats.Sample
	var hops, misroutes, delivered int64
	measuring := false
	var trace func(*noc.Packet)
	if r.Trace != nil {
		trace = tracer(r.Trace)
	}
	// Chain rather than replace any caller-installed ejection hook, so a
	// caller can tap per-packet latencies.
	prev := r.Net.OnEject
	r.Net.OnEject = func(p *noc.Packet) {
		if prev != nil {
			prev(p)
		}
		if trace != nil {
			trace(p)
		}
		if !measuring {
			return
		}
		lat.Add(p.NetworkLatency())
		hops += int64(p.Hops)
		misroutes += int64(p.Misroutes)
		delivered++
	}
	defer func() { r.Net.OnEject = prev }()

	total := warmup + measure
	watch := r.Params.Scheme == SchemeNone
	lastEject := int64(0)
	suspect := false
	// base converts between the network's absolute clock and this run's
	// iteration counter: iteration cyc steps the clock from base+cyc to
	// base+cyc+1. It is nonzero when the runner is reused for a second run.
	base := r.Net.Cycle()
	for cyc := int64(0); cyc < total; cyc++ {
		// Scheduled faults fire first, before injection and Step, so an
		// event at cycle C reconfigures on the C→C+1 boundary.
		if err := r.applyDueFaults(); err != nil {
			return res, err
		}
		if !r.Net.Frozen() {
			gen.Tick(r.Net)
		}
		if err := r.Net.StepContext(ctx); err != nil {
			return res, fmt.Errorf("sim: synthetic run cancelled at cycle %d: %w", r.Net.Cycle(), err)
		}
		if err := r.TickScheme(); err != nil {
			return res, err
		}
		if cyc == warmup {
			measuring = true
		}
		// Sink: consume every ejection queue (stats were already taken by
		// OnEject as the packets landed).
		r.Net.DiscardEjected()
		if watch && cyc%512 == 511 {
			if r.Net.Counters.Ejected == lastEject && r.Net.HasDeadlock(noc.LivenessOpts{}) {
				if suspect {
					res.Deadlocked = true
					res.DeadlockCycle = r.Net.Cycle()
					break
				}
				suspect = true
			} else {
				suspect = false
			}
			lastEject = r.Net.Counters.Ejected
		}
		// Idle fast-forward: when network, scheme and generator all prove
		// a window of do-nothing iterations, jump over it in one go. An
		// iteration j steps the clock from j to j+1 (firing cycle j+1's
		// events) and ticks the scheme at j+1, so the first iteration that
		// may matter is (earliest interesting cycle) - 1. The window is
		// further capped so that the warmup flip, every StepContext
		// cancellation poll (the bounded-cancel contract), and every
		// deadlock-watch sweep still execute on their exact cycles.
		if !r.Net.Frozen() {
			// NextWorkCycle hints are absolute network cycles; -base maps
			// them onto the iteration counter.
			u := min(r.Net.NextWorkCycle(), r.nextSchemeWorkCycle()) - base - 1
			// A fault at absolute cycle C is applied at the top of
			// iteration C-base, so that iteration must execute.
			if fb := r.nextFaultCycle() - base; fb < u {
				u = fb
			}
			if u > total {
				u = total
			}
			if cyc < warmup && warmup < u {
				u = warmup
			}
			// StepContext polls ctx when the absolute clock is a multiple of
			// CancelCheckEvery, so the boundary is computed absolutely too.
			if pb := (base+cyc+noc.CancelCheckEvery)&^(noc.CancelCheckEvery-1) - base; pb < u {
				u = pb
			}
			if watch {
				if wb := (cyc + 1) | 511; wb < u {
					u = wb
				}
			}
			if w := u - (cyc + 1); w > 0 {
				// The generator may stop short at the first cycle in which
				// some node's rate draw fires; stepping resumes there.
				skipped := gen.SkipQuiet(r.Graph.N(), w)
				r.Net.SkipIdle(skipped)
				cyc += skipped
				res.FastForwarded += skipped
			}
		}
	}
	res.Cycles = r.Net.Cycle()
	res.Counters = r.Net.Counters
	res.AvgLatency = lat.Mean()
	res.P99Latency = lat.P99()
	if delivered > 0 {
		res.AvgHops = float64(hops) / float64(delivered)
		res.MisroutesPerK = 1000 * float64(misroutes) / float64(delivered)
	}
	if measure > 0 {
		res.Accepted = float64(delivered) / float64(r.Graph.N()) / float64(measure)
	}
	return res, nil
}

// LoadSweep measures a latency/throughput curve: one fresh runner per
// offered rate (networks are not reusable across rates).
func LoadSweep(p Params, patternName string, rates []float64, warmup, measure int64) (stats.Curve, error) {
	return LoadSweepContext(context.Background(), p, patternName, rates, warmup, measure)
}

// LoadSweepContext is LoadSweep with cancellation: ctx is threaded into
// every per-rate run (see RunSyntheticContext) and also checked between
// rates.
func LoadSweepContext(ctx context.Context, p Params, patternName string, rates []float64, warmup, measure int64) (stats.Curve, error) {
	var curve stats.Curve
	for _, rate := range rates {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: load sweep cancelled: %w", err)
		}
		r, err := Build(p)
		if err != nil {
			return nil, err
		}
		pat, err := traffic.ByName(patternName, r.Graph.N(), p.Width)
		if err != nil {
			return nil, err
		}
		res, err := r.RunSyntheticContext(ctx, pat, rate, warmup, measure)
		if err != nil {
			return nil, err
		}
		curve = append(curve, stats.LoadPoint{
			Offered:  rate,
			Accepted: res.Accepted,
			AvgLat:   res.AvgLatency,
			P99Lat:   res.P99Latency,
		})
	}
	return curve, nil
}

// AppResult summarizes a closed-loop coherence workload run.
type AppResult struct {
	Workload   string
	Completed  bool
	Runtime    int64 // cycles until every core hit its ops target
	AvgLatency float64
	P99Latency int64
	Protocol   coherence.Stats
	Counters   noc.Counters
	Drains     int64
	Spins      int64
	// Deadlocked reports a persistent deadlock (SchemeNone runs only;
	// protected schemes resolve deadlocks instead).
	Deadlocked    bool
	DeadlockCycle int64
}

// RunApp executes a coherence workload to completion (every core
// performs opsTarget memory operations) or until maxCycles.
func (r *Runner) RunApp(prof workload.Profile, opsTarget, maxCycles int64) (AppResult, error) {
	return r.RunAppContext(context.Background(), prof, opsTarget, maxCycles)
}

// RunAppContext is RunApp with cancellation: the step loop polls ctx
// every noc.CancelCheckEvery cycles and returns a cancellation error
// (wrapping ctx.Err()) within that cycle bound. With
// context.Background() the results are byte-identical to RunApp.
func (r *Runner) RunAppContext(ctx context.Context, prof workload.Profile, opsTarget, maxCycles int64) (AppResult, error) {
	res := AppResult{Workload: prof.Name}
	if r.Params.Classes < coherence.NumClasses {
		return res, fmt.Errorf("sim: coherence runs need Classes=3 (have %d)", r.Params.Classes)
	}
	sys, err := coherence.New(r.Net, coherence.Config{
		Gen:       prof,
		OpsTarget: opsTarget,
		MSHRs:     r.Params.MSHRs,
		Seed:      r.Params.Seed ^ 0x517cc1b7,
	})
	if err != nil {
		return res, err
	}
	var lat stats.Sample
	var trace func(*noc.Packet)
	if r.Trace != nil {
		trace = tracer(r.Trace)
	}
	r.Net.OnEject = func(p *noc.Packet) {
		if trace != nil {
			trace(p)
		}
		lat.Add(p.NetworkLatency())
	}
	defer func() { r.Net.OnEject = nil }()

	lastEject := int64(0)
	suspect := false
	watch := r.Params.Scheme == SchemeNone
	opts := noc.LivenessOpts{EjectLiveByClass: sinkClasses(r.Params.Classes)}
	for cyc := int64(0); cyc < maxCycles; cyc++ {
		if err := r.applyDueFaults(); err != nil {
			return res, err
		}
		if err := r.Net.StepContext(ctx); err != nil {
			return res, fmt.Errorf("sim: app run cancelled at cycle %d: %w", r.Net.Cycle(), err)
		}
		if err := r.TickScheme(); err != nil {
			return res, err
		}
		sys.Tick()
		if sys.Done() {
			res.Completed = true
			break
		}
		if watch && cyc%512 == 511 {
			// A deadlock is confirmed when two consecutive sweeps find
			// non-live buffers with zero ejections in between.
			if r.Net.Counters.Ejected == lastEject && r.Net.HasDeadlock(opts) {
				if suspect {
					res.Deadlocked = true
					res.DeadlockCycle = r.Net.Cycle()
					break
				}
				suspect = true
			} else {
				suspect = false
			}
			lastEject = r.Net.Counters.Ejected
		}
	}
	res.Runtime = r.Net.Cycle()
	res.AvgLatency = lat.Mean()
	res.P99Latency = lat.P99()
	res.Protocol = sys.Stats()
	res.Counters = r.Net.Counters
	if r.Drain != nil {
		res.Drains = r.Drain.Stats().Drains
	}
	if r.Spin != nil {
		res.Spins = r.Spin.Stats().Spins
	}
	return res, nil
}
