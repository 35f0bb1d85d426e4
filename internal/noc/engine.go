package noc

// EngineKind selects the cycle-core implementation behind Network.Step.
type EngineKind int

const (
	// EngineEvent is the event-driven core (the default): activity
	// bitmaps for allocation and injection, a timing wheel over future
	// events, and idle fast-forward support. Byte-identical to
	// EngineDense — same RNG draw sequence, same counters, same results.
	EngineEvent EngineKind = iota
	// EngineDense is the reference stepper: every cycle it rescans all
	// in-flight transfers, all routers with occupied input VCs, and all
	// injection queues. Kept behind the engine seam as the differential
	// oracle for the event core (see FuzzDenseVsEvent).
	EngineDense
)

// String implements fmt.Stringer (benchmark sub-names use it).
func (k EngineKind) String() string {
	switch k {
	case EngineDense:
		return "dense"
	}
	return "event"
}

// engine is the build-internal seam between Network's state (buffers,
// queues, counters, RNG) and the per-cycle control flow that decides
// which of that state to visit. Both implementations drive the same
// shared mutation paths (allocateRouter, injectRouterQueues, land), so
// any divergence is confined to *which routers are visited when* — and
// the determinism argument (DESIGN.md §"Event-driven core") shows the
// event engine visits a superset of the routers that matter, in the
// same ascending order, which is why the two are byte-identical.
//
// The Network notifies its engine at every point that changes head
// eligibility or queue occupancy: placed (a packet entered an input
// VC), noteInject (an injection queue went non-empty), addFlight (a
// transfer started). Missing a notification would strand a packet in
// the event engine; CheckInvariants cross-checks the activity bitmaps
// and the wheel against a full state scan to catch exactly that.
type engine interface {
	// step runs one cycle after Network.Step has incremented the clock:
	// complete arrivals, then (unless frozen) allocation and injection.
	step(n *Network)
	// addFlight registers a started transfer landing at f.doneAt.
	addFlight(n *Network, f flight)
	// placed records that a packet now heads an input VC of router,
	// becoming eligible at readyAt (readyAt <= now means immediately).
	placed(n *Network, router int, readyAt int64)
	// noteInject records that router's injection queues went non-empty.
	noteInject(n *Network, router int)
	// inflightCount returns the number of transfers currently on links.
	inflightCount() int
	// eachFlight visits every pending transfer (diagnostics only).
	eachFlight(fn func(f *flight))
	// nextWorkCycle returns a lower bound on the next cycle at which
	// stepping the network could have any observable effect: the
	// earliest pending wheel event, or now+1 when any activity bit is
	// set. The dense engine always answers now+1 (it cannot prove
	// idleness), which makes drivers engine-agnostic.
	nextWorkCycle(n *Network) int64
	// skipIdle advances the clock k cycles in one jump. Callers must
	// have proven the window empty via nextWorkCycle; the dense engine
	// panics (its nextWorkCycle never admits a skippable window).
	skipIdle(n *Network, k int64)
	// removeFailedFlights drops every pending non-eject transfer whose
	// destination link is marked down, applying n.dropFlight to each and
	// returning the count. Drop effects commute (disjoint packets and
	// slots, order-independent counter sums), so engines may visit their
	// flight sets in any internal order. Called between Steps only.
	removeFailedFlights(n *Network, down []bool) int
	// check validates engine-internal invariants against a full scan of
	// the network state (tests only).
	check(n *Network) error
}

// newEngine constructs the engine selected by cfg.Engine.
func newEngine(cfg *Config) engine {
	switch cfg.Engine {
	case EngineDense:
		return &denseEngine{}
	}
	return newEventEngine(cfg)
}
