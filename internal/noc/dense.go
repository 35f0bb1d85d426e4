package noc

// denseEngine is the reference cycle core: an exhaustive per-cycle scan
// of the in-flight slice, the occupied-router set and the injection
// queues. It performs no event bookkeeping, so it is trivially correct —
// which is exactly its job: FuzzDenseVsEvent and the sim-level
// differential tests hold the event engine to byte-identical behavior
// against this implementation.
type denseEngine struct {
	inflights []flight
}

// step advances one cycle: complete arrivals, then (unless frozen)
// switch/VC allocation and injection.
//
//drain:hotpath dense-core cycle entry, dispatched from Network.Step through the engine seam (dynamic calls are not followed)
func (d *denseEngine) step(n *Network) {
	d.completeFlights(n)
	if n.frozen {
		n.Counters.FrozenCyc++
		return
	}
	n.allocate()
	n.injectFromQueues()
}

// completeFlights lands transfers whose serialization finished.
func (d *denseEngine) completeFlights(n *Network) {
	out := d.inflights[:0]
	for _, f := range d.inflights {
		if f.doneAt > n.cycle {
			out = append(out, f)
			continue
		}
		n.land(f)
	}
	d.inflights = out
}

// addFlight registers a started transfer.
//
//drain:hotpath called from arbitration through the engine seam (dynamic calls are not followed)
func (d *denseEngine) addFlight(_ *Network, f flight) {
	d.inflights = append(d.inflights, f)
}

// placed is a no-op: the dense allocate() rescan discovers new heads by
// itself (via the occIn occupancy counts).
func (d *denseEngine) placed(_ *Network, _ int, _ int64) {}

// noteInject is a no-op: injectFromQueues rescans every router.
func (d *denseEngine) noteInject(_ *Network, _ int) {}

// inflightCount returns the number of transfers currently on links.
func (d *denseEngine) inflightCount() int { return len(d.inflights) }

// eachFlight visits every pending transfer.
func (d *denseEngine) eachFlight(fn func(f *flight)) {
	for i := range d.inflights {
		fn(&d.inflights[i])
	}
}

// removeFailedFlights filters the in-flight slice in place, dropping
// transfers bound for a failed link.
func (d *denseEngine) removeFailedFlights(n *Network, down []bool) int {
	dropped := 0
	out := d.inflights[:0]
	for _, f := range d.inflights {
		if !f.eject && down[f.toLink] {
			n.dropFlight(f)
			dropped++
			continue
		}
		out = append(out, f)
	}
	d.inflights = out
	return dropped
}

// nextWorkCycle cannot prove idleness without event bookkeeping, so the
// dense engine always reports possible work next cycle; drivers built
// on the hint (sim.RunSyntheticContext) then never skip, and stay
// engine-agnostic.
func (d *denseEngine) nextWorkCycle(n *Network) int64 { return n.cycle + 1 }

// skipIdle must never be reached: nextWorkCycle never admits a window.
func (d *denseEngine) skipIdle(_ *Network, _ int64) {
	panic("noc: dense engine cannot fast-forward (driver ignored nextWorkCycle)")
}

// check has nothing beyond the shared CheckInvariants scans.
func (d *denseEngine) check(_ *Network) error { return nil }
