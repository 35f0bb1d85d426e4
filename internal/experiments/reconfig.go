package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"drain/internal/sim"
	"drain/internal/topology"
	"drain/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "reconfig",
		Title: "Live fault injection and drain-path reconfiguration (DBR-style)",
		Paper: "DRAIN's substrate tolerates topology changes at runtime: when links " +
			"fail mid-run the routing candidates and the drain cycle are recomputed " +
			"online over the surviving subgraph, in-flight packets are rerouted or " +
			"dropped, and traffic keeps flowing — the dynamic-reconfiguration " +
			"counterpart (cf. DBR) to the paper's static fault sweeps.",
		Run: reconfig,
	})
}

// Reconfiguration timeline (absolute cycles): a burst of k link failures
// at reconfigFailAt, full recovery at reconfigRestoreAt, observed in
// four equal measurement windows — steady state, the transition right
// after the failure burst, the degraded steady state, and post-recovery.
const (
	reconfigWindow    = int64(1000)
	reconfigFailAt    = int64(2000)
	reconfigRestoreAt = int64(4000)
)

// burstSchedule picks k distinct links whose joint removal keeps g
// connected (drawing from the removable-edge set after each pick) and
// schedules them all to fail at failAt and recover at restoreAt.
func burstSchedule(g *topology.Graph, k int, failAt, restoreAt int64, rng *rand.Rand) ([]sim.FaultEvent, error) {
	cur := g
	evs := make([]sim.FaultEvent, 0, 2*k)
	failed := make([]topology.Edge, 0, k)
	for i := 0; i < k; i++ {
		cands := topology.RemovableEdges(cur)
		if len(cands) == 0 {
			return nil, fmt.Errorf("cannot fail %d links without disconnecting the topology", k)
		}
		e := cands[rng.IntN(len(cands))]
		var err error
		cur, err = cur.WithoutEdge(e.A, e.B)
		if err != nil {
			return nil, err
		}
		failed = append(failed, e)
		evs = append(evs, sim.FaultEvent{Cycle: failAt, A: e.A, B: e.B, Fail: true})
	}
	for _, e := range failed {
		evs = append(evs, sim.FaultEvent{Cycle: restoreAt, A: e.A, B: e.B, Fail: false})
	}
	return evs, nil
}

// reconfig measures how the network rides through live reconfigurations
// as the failure-burst size grows: latency in each timeline window, the
// delivery ratio during the transition, and the fate of the packets the
// failures touched. The fault schedules are generated from the base
// seed, so the figure regenerates deterministically.
func reconfig(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	bursts := []int{1, 2, 4}
	trials := 1
	if sc == Full {
		bursts = []int{1, 2, 4, 8}
		trials = 3
	}
	schemes := []sim.Scheme{sim.SchemeDRAIN, sim.SchemeEscapeVC}
	const rate = 0.10

	type cell struct {
		steady, transition, degraded, recovered float64 // window avg latency
		delivery                                float64 // transition accepted/offered
		rerouted, dropped, reconfigs            int64
	}
	perScheme := trials
	perBurst := len(schemes) * perScheme
	cells := make([]cell, len(bursts)*perBurst)
	err := ForEachConfigContext(ctx, len(cells), func(i int) error {
		trial := i % perScheme
		si := i / perScheme % len(schemes)
		bi := i / perBurst
		k := bursts[bi]

		p := sim.Params{Width: 8, Height: 8, Scheme: schemes[si], Epoch: 1024,
			Seed: seed + uint64(trial)*7919}
		g, mesh, err := p.BuildGraph()
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewPCG(seed^(uint64(k)*0x9e3779b9), uint64(trial)*0x0dbc30+0xfa1175))
		p.FaultSchedule, err = burstSchedule(g, k, reconfigFailAt, reconfigRestoreAt, rng)
		if err != nil {
			return err
		}
		r, err := sim.BuildOn(g, mesh, p)
		if err != nil {
			return err
		}
		pat := traffic.UniformRandom{N: g.N()}
		// Four back-to-back measurement windows over one live network;
		// the runner keeps its clock, so the absolute schedule cycles
		// land inside the windows they bracket.
		steady, err := r.RunSyntheticContext(ctx, pat, rate, reconfigFailAt-reconfigWindow, reconfigWindow)
		if err != nil {
			return err
		}
		transition, err := r.RunSyntheticContext(ctx, pat, rate, 0, reconfigWindow)
		if err != nil {
			return err
		}
		degraded, err := r.RunSyntheticContext(ctx, pat, rate, 0, reconfigRestoreAt-reconfigFailAt-reconfigWindow)
		if err != nil {
			return err
		}
		recovered, err := r.RunSyntheticContext(ctx, pat, rate, 0, reconfigWindow)
		if err != nil {
			return err
		}
		cells[i] = cell{
			steady:     steady.AvgLatency,
			transition: transition.AvgLatency,
			degraded:   degraded.AvgLatency,
			recovered:  recovered.AvgLatency,
			delivery:   transition.Accepted / rate,
			rerouted:   recovered.Counters.FaultReroutes,
			dropped:    recovered.Counters.FaultDrops,
			reconfigs:  recovered.Counters.Reconfigs,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := Table{
		ID:    "reconfig",
		Title: "Latency and delivery through a live failure burst (8x8 mesh, uniform 0.10)",
		Columns: []string{"failed links", "scheme", "steady lat", "transition lat",
			"degraded lat", "recovered lat", "transition delivery", "rerouted", "dropped"},
	}
	for bi, k := range bursts {
		for si, s := range schemes {
			var c cell
			for trial := 0; trial < trials; trial++ {
				x := cells[bi*perBurst+si*perScheme+trial]
				c.steady += x.steady
				c.transition += x.transition
				c.degraded += x.degraded
				c.recovered += x.recovered
				c.delivery += x.delivery
				c.rerouted += x.rerouted
				c.dropped += x.dropped
				c.reconfigs += x.reconfigs
			}
			n := float64(trials)
			if c.reconfigs != int64(2*trials) {
				return nil, fmt.Errorf("reconfig: k=%d %v: %d reconfigurations over %d trials, want %d",
					k, s, c.reconfigs, trials, 2*trials)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", k), s.String(),
				f1(c.steady / n), f1(c.transition / n), f1(c.degraded / n), f1(c.recovered / n),
				pct(c.delivery / n),
				fmt.Sprintf("%.1f", float64(c.rerouted)/n),
				fmt.Sprintf("%.1f", float64(c.dropped)/n),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("All k links fail at cycle %d (one reconfiguration) and recover at cycle %d "+
			"(a second); every row saw exactly two reconfigurations per trial. Windows of %d cycles "+
			"measure steady state, the post-failure transition, the degraded network and "+
			"post-recovery. Rerouted packets were evacuated off failed links; dropped packets "+
			"were cut on the wire or had no free buffer. Averaged over %d trial schedule(s) "+
			"derived from the base seed.",
			reconfigFailAt, reconfigRestoreAt, reconfigWindow, trials))
	return []Table{t}, nil
}
