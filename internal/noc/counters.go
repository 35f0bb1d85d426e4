package noc

// Counters aggregates the microarchitectural event counts the power model
// consumes (internal/power) and the simulator reports.
type Counters struct {
	Created    int64 // packets entering injection queues
	Injected   int64 // packets leaving injection queues into VCs
	Ejected    int64 // packets entering ejection queues
	Hops       int64 // link traversals (packet granularity)
	LinkFlits  int64 // link traversals (flit granularity)
	BufWrites  int64 // VC buffer writes (flits)
	BufReads   int64 // VC buffer reads (flits)
	XbarFlits  int64 // crossbar traversals (flits)
	VCAllocs   int64 // successful VC allocations
	SWAllocs   int64 // successful switch allocations
	Misroutes  int64 // unproductive hops
	DrainMoves int64 // packet-hops forced by drain windows
	SpinMoves  int64 // packet-hops forced by SPIN recovery
	Probes     int64 // SPIN probe messages (modelled)
	Drains     int64 // drain windows executed
	FullDrains int64 // full drains executed
	FrozenCyc  int64 // cycles spent frozen (pre-drain + drain windows)

	// Runtime fault/reconfiguration outcomes (see Network.Reconfigure).
	Reconfigs     int64 // live topology reconfigurations applied
	FaultReroutes int64 // buffered packets evacuated off failed links
	FaultDrops    int64 // packets dropped by link failures (in flight or stranded)

	// Recycled counts packets returned to the free-list (pool.go):
	// delivered packets drained by DiscardEjected or released by a
	// consumer, failed injections handed back by the driver, and
	// fault-dropped packets. It is bookkeeping for the pool-safety
	// invariant, not a network event.
	Recycled int64

	// Per-virtual-network activity, for the Fig. 4 active/wasted power
	// split. Activity is tracked at router granularity: VN vn is active
	// at router r in a cycle when one of its flits moved through r, and
	// VNActiveRouterCycles[vn] counts such (router, cycle) pairs. The
	// activity *fraction* is VNActiveRouterCycles / (routers × cycles).
	VNFlits              []int64
	VNActiveRouterCycles []int64
	vnRouterLastActive   [][]int64 // [vn][router] last active cycle
}

// noteVNActivity records flit movement on virtual network vn through
// router r at the given cycle.
func (c *Counters) noteVNActivity(vn, router int, cycle, flits int64) {
	c.VNFlits[vn] += flits
	if c.vnRouterLastActive[vn][router] != cycle {
		c.vnRouterLastActive[vn][router] = cycle
		c.VNActiveRouterCycles[vn]++
	}
}
