package noc

import (
	"fmt"
	"math/rand/v2"

	"drain/internal/routing"
	"drain/internal/topology"
)

// vcSlot is one virtual-channel buffer (single packet, VCT).
type vcSlot struct {
	pkt      *Packet
	reserved bool // claimed by an in-flight transfer
}

func (s *vcSlot) free() bool { return s.pkt == nil && !s.reserved }

// flight is an in-progress transfer over a link or through an eject port.
type flight struct {
	pkt      *Packet
	doneAt   int64
	eject    bool
	toLink   int // destination link (buffer at its head router); -1 for eject
	toSlot   int
	toRouter int
	// effects applied on arrival
	setEscape  bool
	downPhase  bool
	productive bool
}

// Network is a complete NoC instance. It is not safe for concurrent use;
// the simulator is single-threaded and deterministic for a given seed.
type Network struct {
	cfg Config
	g   *topology.Graph
	tab *routing.Table
	rng *rand.Rand

	cycle  int64
	frozen bool

	// eng is the cycle-core implementation (event or dense) behind Step;
	// it owns the in-flight transfer set and, for the event engine, the
	// activity bitmaps and timing wheel. Network notifies it at every
	// eligibility-changing point (placed, noteInject, addFlight).
	eng engine

	vcPerPort int
	linkVC    [][]vcSlot // [linkID][slot]
	localVC   [][]vcSlot // [router][slot]
	linkBusy  []int64    // per link: busy until this cycle (exclusive)
	ejectBusy []int64    // per router

	injQ [][]pktQueue // [router][class]
	ejQ  [][]pktQueue

	// injPending counts non-empty (router, class) injection queues so a
	// cycle with nothing queued skips the router × class scan entirely.
	injPending int

	// ejDirty/ejDirtyList track routers whose ejection queues received
	// packets since the last DiscardEjected sweep, so synthetic sinks
	// drain only routers that actually ejected something.
	ejDirty     []bool
	ejDirtyList []int32

	// cyclesPending/ffPending batch ticks bound for the process-wide
	// simulated-cycle and fast-forwarded-cycle counters (see cycles.go).
	cyclesPending int64
	ffPending     int64

	inLinks  [][]int // link IDs ending at each router
	outLinks [][]int // link IDs starting at each router

	// occIn[r] counts occupied input VC buffers (link + local) at router
	// r. allocate() skips routers with zero occupancy — the "active
	// router" set — which is both a fast path for lightly loaded networks
	// and behavior-preserving: a router with no occupied input VC can
	// never produce a request, so no arbitration (and no RNG draw)
	// happens there either way.
	occIn []int32

	nextID int64

	// OnEject, when set, is invoked for every packet as it enters an
	// ejection queue (including packets ejected during drain windows).
	// Simulation drivers use it to collect latency statistics.
	OnEject func(*Packet)

	Counters Counters

	// scratch buffers reused across cycles (steady-state Step performs
	// no heap allocation; see BenchmarkStepAllocs). gs is the
	// request-gathering scratch; scrOpts/scrWin serve arbitration.
	gs      gatherScratch
	scrOpts []grant
	scrWin  []int

	// wantOut[link] == cycle marks output links some request gathered
	// this cycle could use, letting allocateRouter skip the arbitration
	// of outputs that would yield zero options (and so draw nothing).
	// Links belong to exactly one source router, so stamps from routers
	// sharing a cycle never collide (see noteWantOut).
	wantOut []int64

	// occLink[l] counts occupied VC buffers at the input port fed by link
	// l; occLocal[r] counts occupied local (injection-port) VC buffers at
	// router r. They let request gathering skip empty ports without
	// scanning their slots. Invariant: occIn[r] equals occLocal[r] plus
	// the occLink of r's inbound links (checked by CheckInvariants).
	occLink  []int32
	occLocal []int32

	// freePkts is the packet free-list (LIFO): NewPacket pops it,
	// ReleasePacket pushes it. See pool.go for the ownership and
	// determinism rules.
	freePkts []*Packet

	// linkDown marks unidirectional links failed by a live
	// reconfiguration (see Reconfigure). The graph and all linkID-indexed
	// arrays keep the full topology's dense numbering forever; a failed
	// link simply vanishes from every routing candidate set, so no hot
	// path consults this overlay. Invariant: a down link's input VC slots
	// hold no non-sending packets and no reservations.
	linkDown []bool
	// scrDown is Reconfigure's scratch for the incoming down set (the
	// reconfig path is alloc-free; see the hotalloc root).
	scrDown []bool
}

// New builds a network from cfg (cfg is validated and defaulted).
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tab := cfg.Table
	if tab == nil {
		var err error
		tab, err = routing.NewTable(cfg.Graph, cfg.Mesh)
		if err != nil {
			return nil, err
		}
	}
	g := cfg.Graph
	n := &Network{
		cfg:       cfg,
		g:         g,
		tab:       tab,
		rng:       rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		vcPerPort: cfg.VCsPerPort(),
		linkBusy:  make([]int64, g.NumLinks()),
		ejectBusy: make([]int64, g.N()),
		inLinks:   make([][]int, g.N()),
		outLinks:  make([][]int, g.N()),
	}
	n.linkVC = make([][]vcSlot, g.NumLinks())
	for i := range n.linkVC {
		n.linkVC[i] = make([]vcSlot, n.vcPerPort)
	}
	n.localVC = make([][]vcSlot, g.N())
	n.injQ = make([][]pktQueue, g.N())
	n.ejQ = make([][]pktQueue, g.N())
	n.occIn = make([]int32, g.N())
	n.ejDirty = make([]bool, g.N())
	n.wantOut = make([]int64, g.NumLinks())
	n.occLink = make([]int32, g.NumLinks())
	n.occLocal = make([]int32, g.N())
	n.linkDown = make([]bool, g.NumLinks())
	n.scrDown = make([]bool, g.NumLinks())
	n.eng = newEngine(&n.cfg)
	for r := 0; r < g.N(); r++ {
		n.localVC[r] = make([]vcSlot, n.vcPerPort)
		n.injQ[r] = make([]pktQueue, cfg.Classes)
		n.ejQ[r] = make([]pktQueue, cfg.Classes)
		for c := 0; c < cfg.Classes; c++ {
			// Pre-size the rings to their caps so bounded queues never
			// grow (and so Push never allocates) in steady state.
			n.injQ[r][c] = newPktQueue(cfg.InjectCap)
			n.ejQ[r][c] = newPktQueue(cfg.EjectCap)
		}
	}
	for _, l := range g.Links() {
		n.inLinks[l.To] = append(n.inLinks[l.To], l.ID)
		n.outLinks[l.From] = append(n.outLinks[l.From], l.ID)
	}
	n.Counters.VNFlits = make([]int64, cfg.VNets)
	n.Counters.VNActiveRouterCycles = make([]int64, cfg.VNets)
	n.Counters.vnRouterLastActive = make([][]int64, cfg.VNets)
	for vn := range n.Counters.vnRouterLastActive {
		row := make([]int64, g.N())
		for r := range row {
			row[r] = -1
		}
		n.Counters.vnRouterLastActive[vn] = row
	}
	return n, nil
}

// Config returns the network's (validated) configuration.
func (n *Network) Config() Config { return n.cfg }

// Graph returns the topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Table returns the routing table.
func (n *Network) Table() *routing.Table { return n.tab }

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Frozen reports whether allocation is frozen (pre-drain credit freeze).
func (n *Network) Frozen() bool { return n.frozen }

// SetFrozen engages or releases the credit freeze: while frozen, no new
// VC/switch allocations or injections occur, but in-flight transfers
// complete (paper §III-C2 "Pre-Drain Window").
func (n *Network) SetFrozen(v bool) { n.frozen = v }

// InflightCount returns the number of transfers currently on links.
func (n *Network) InflightCount() int { return n.eng.inflightCount() }

// Engine returns which cycle-core implementation the network runs on.
func (n *Network) Engine() EngineKind { return n.cfg.Engine }

// NextWorkCycle returns a lower bound on the next cycle at which
// stepping the network could have any observable effect. The event
// engine reports the earliest pending event (math.MaxInt64 when the
// network is completely empty); the dense engine always reports the
// next cycle. Drivers combine this with their own horizon (traffic
// generators, scheme controllers) to fast-forward via SkipIdle.
func (n *Network) NextWorkCycle() int64 { return n.eng.nextWorkCycle(n) }

// SkipIdle advances the clock k cycles in one jump. The caller must
// have proven the whole window idle: every cycle skipped must satisfy
// cycle < NextWorkCycle() and see no injections or external mutations.
// k <= 0 is a no-op.
func (n *Network) SkipIdle(k int64) {
	if k <= 0 {
		return
	}
	n.eng.skipIdle(n, k)
	n.noteFFCycles(k)
}

// NewPacket returns a packet with position/IDs initialized; the caller
// sets protocol fields and passes it to Inject. The packet comes from
// the network's free-list when one is available (see pool.go) — every
// field is rewritten, so a recycled packet is indistinguishable from a
// fresh allocation.
func (n *Network) NewPacket(src, dst, class, flits int) *Packet {
	n.nextID++
	p := n.takePacket()
	*p = Packet{
		ID:        n.nextID,
		Src:       src,
		Dst:       dst,
		Class:     class,
		VNet:      n.cfg.VNetOf(class),
		Flits:     flits,
		CreatedAt: n.cycle,
		atRouter:  src,
		inLink:    LocalPort,
		slot:      -1,
	}
	return p
}

// CanInject reports whether router r's injection queue for class has room.
func (n *Network) CanInject(r, class int) bool {
	return n.cfg.InjectCap == 0 || n.injQ[r][class].Len() < n.cfg.InjectCap
}

// Inject queues p at its source router. It returns false (dropping
// nothing; the caller retries) when the injection queue is bounded and
// full.
func (n *Network) Inject(p *Packet) bool {
	if !n.CanInject(p.Src, p.Class) {
		return false
	}
	if p.Flits > n.cfg.MaxFlits {
		panic(fmt.Sprintf("noc: packet of %d flits exceeds MaxFlits %d", p.Flits, n.cfg.MaxFlits))
	}
	q := &n.injQ[p.Src][p.Class]
	if q.Len() == 0 {
		n.injPending++
		n.eng.noteInject(n, p.Src)
	}
	q.Push(p)
	n.Counters.Created++
	return true
}

// InjQueueLen returns the length of router r's class injection queue.
func (n *Network) InjQueueLen(r, class int) int { return n.injQ[r][class].Len() }

// EjectedLen returns the number of packets waiting in router r's class
// ejection queue.
func (n *Network) EjectedLen(r, class int) int { return n.ejQ[r][class].Len() }

// ejectSpace reports whether the class queue at r can accept one more.
func (n *Network) ejectSpace(r, class int) bool {
	return n.ejQ[r][class].Len() < n.cfg.EjectCap
}

// PopEjected removes and returns the oldest ejected packet of the class
// at router r, or nil if the queue is empty. The consumer (traffic sink
// or coherence controller) calls this; separate per-class consumption is
// what makes the paper's protocol-deadlock assumptions hold.
func (n *Network) PopEjected(r, class int) *Packet {
	return n.ejQ[r][class].Pop()
}

// PeekEjected returns the oldest ejected packet without removing it.
func (n *Network) PeekEjected(r, class int) *Packet {
	return n.ejQ[r][class].Peek()
}

// DiscardEjected empties every ejection queue, visiting only routers
// that ejected something since the last sweep, and recycles every
// drained packet into the free-list (the delivered packet's simulation
// life is over; statistics were taken at OnEject time). Synthetic-
// traffic sinks use it in place of a full router × class PopEjected
// scan; protocol consumers that need the packets keep using PopEjected
// (a router left dirty after manual pops is a harmless extra visit
// here) and may ReleasePacket themselves once done.
func (n *Network) DiscardEjected() {
	for _, r := range n.ejDirtyList {
		for c := range n.ejQ[r] {
			q := &n.ejQ[r][c]
			for p := q.Pop(); p != nil; p = q.Pop() {
				n.ReleasePacket(p)
			}
		}
		n.ejDirty[r] = false
	}
	n.ejDirtyList = n.ejDirtyList[:0]
}

// OccupiedVCs returns the number of link VC buffers currently holding
// packets (diagnostic).
func (n *Network) OccupiedVCs() int {
	c := 0
	for _, port := range n.linkVC {
		for i := range port {
			if port[i].pkt != nil {
				c++
			}
		}
	}
	return c
}

// InFlightPackets returns the total packets anywhere in the network:
// injection queues, VCs, and ejection queues. A packet mid-transfer on
// a link still occupies its upstream VC slot (land() frees it on
// completion), so the occupancy scan already covers every flight —
// counting n.inflights too would double-count packets in motion.
func (n *Network) InFlightPackets() int {
	total := 0
	for r := 0; r < n.g.N(); r++ {
		for c := 0; c < n.cfg.Classes; c++ {
			total += n.injQ[r][c].Len() + n.ejQ[r][c].Len()
		}
		for i := range n.localVC[r] {
			if n.localVC[r][i].pkt != nil {
				total++
			}
		}
	}
	return total + n.OccupiedVCs()
}

// EscapeOccupant returns the packet in link's escape VC for virtual
// network vn, or nil.
func (n *Network) EscapeOccupant(linkID, vn int) *Packet {
	return n.linkVC[linkID][n.cfg.EscapeSlot(vn)].pkt
}

// LinkOccupant returns the packet in the given link VC slot, or nil.
func (n *Network) LinkOccupant(linkID, slot int) *Packet {
	return n.linkVC[linkID][slot].pkt
}

// LocalOccupant returns the packet in the given local VC slot, or nil.
func (n *Network) LocalOccupant(router, slot int) *Packet {
	return n.localVC[router][slot].pkt
}
