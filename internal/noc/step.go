package noc

import (
	"context"
	"math/bits"

	"drain/internal/routing"
)

// CancelCheckEvery is how often (in cycles) StepContext polls its
// context. It bounds how long a cancelled run keeps stepping: a caller
// driving the network exclusively through StepContext observes the
// cancellation within CancelCheckEvery cycles. A power of two keeps the
// per-cycle cost to one mask-and-branch.
const CancelCheckEvery = 1024

// StepContext advances the network by one cycle like Step, first
// checking ctx every CancelCheckEvery cycles. It returns ctx.Err() (and
// leaves the network un-stepped) once the context is cancelled, nil
// otherwise. With context.Background() it is behaviorally identical to
// Step: the check never fires an error and consumes no randomness, so
// determinism is unaffected.
func (n *Network) StepContext(ctx context.Context) error {
	if n.cycle&(CancelCheckEvery-1) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	n.Step()
	return nil
}

// request is an input VC asking for outputs this cycle (scratch state).
type request struct {
	pkt    *Packet
	inLink int // LocalPort or link ID
	slot   int
	wantEj bool
}

// outWant files request req under one output it may use (scratch
// state), with the main (non-escape) and escape candidates it has there.
type outWant struct {
	req       int32
	main, esc candBits
}

// candBits is one routing candidate as an outWant keeps it.
type candBits struct{ ok, downPhase, productive bool }

// grant is one feasible (input VC → output slot) assignment during link
// arbitration (scratch state).
type grant struct {
	reqIdx     int
	toSlot     int
	setEscape  bool
	downPhase  bool
	productive bool
}

// gatherScratch is the request-gathering scratch (the Network's gs).
type gatherScratch struct {
	reqs []request
	// want[i] lists, in request order, the requests that may use the
	// gathering router's i-th output (outLinks[r][i]; see outPos), and
	// bit i of wanted is set while want[i] is non-empty. allocateRouter
	// empties both as it arbitrates.
	want   [][]outWant
	wanted []uint64
}

// Step advances the network by one cycle: completes arrivals, performs
// switch/VC allocation (unless frozen), and moves injection-queue heads
// into free local VCs. The caller consumes ejection queues afterwards.
// The cycle body is dispatched through the configured engine (event or
// dense); both drive the same mutation paths below and are
// byte-identical — see DESIGN.md §"Event-driven core".
func (n *Network) Step() {
	n.cycle++
	n.noteCycles(1)
	n.eng.step(n)
}

// land applies the effects of a completed transfer.
func (n *Network) land(f flight) {
	p := f.pkt
	n.freeUpstream(p.inLink, p.atRouter, p.slot, int64(p.Flits))
	p.sending = false

	if f.eject {
		n.pushEject(f.toRouter, p)
		return
	}
	n.landArrive(f)
}

// freeUpstream releases the input VC slot a departed packet occupied.
func (n *Network) freeUpstream(inLink, router, slot int, flits int64) {
	n.slotOf(inLink, router, slot).pkt = nil
	n.occIn[router]--
	if inLink == LocalPort {
		n.occLocal[router]--
	} else {
		n.occLink[inLink]--
	}
	n.Counters.BufReads += flits
}

// landArrive applies the downstream (destination-router) effects of a
// completed non-eject transfer.
func (n *Network) landArrive(f flight) {
	p := f.pkt
	dst := &n.linkVC[f.toLink][f.toSlot]
	dst.reserved = false
	dst.pkt = p
	n.occIn[f.toRouter]++
	n.occLink[f.toLink]++
	p.atRouter = f.toRouter
	p.inLink = f.toLink
	p.slot = f.toSlot
	p.readyAt = n.cycle + int64(n.cfg.RouterLatency)
	p.Hops++
	if f.setEscape {
		p.InEscape = true
	}
	p.DownPhase = f.downPhase
	if !f.productive {
		p.Misroutes++
		n.Counters.Misroutes++
	}
	n.Counters.Hops++
	n.Counters.LinkFlits += int64(p.Flits)
	n.Counters.BufWrites += int64(p.Flits)
	n.Counters.noteVNActivity(p.VNet, f.toRouter, n.cycle, int64(p.Flits))
	n.eng.placed(n, f.toRouter, p.readyAt)
}

// pushEject delivers p to its destination's ejection queue.
func (n *Network) pushEject(router int, p *Packet) {
	p.EjectedAt = n.cycle
	n.ejQ[router][p.Class].Push(p)
	if !n.ejDirty[router] {
		n.ejDirty[router] = true
		n.ejDirtyList = append(n.ejDirtyList, int32(router))
	}
	n.Counters.Ejected++
	if n.OnEject != nil {
		n.OnEject(p)
	}
}

// slotOf resolves an input VC slot (link or local port).
func (n *Network) slotOf(inLink, router, slot int) *vcSlot {
	if inLink == LocalPort {
		return &n.localVC[router][slot]
	}
	return &n.linkVC[inLink][slot]
}

// allocate performs one cycle of switch + VC allocation at every active
// router. Routers with no occupied input VCs cannot produce requests (and
// would consume no randomness), so they are skipped outright.
func (n *Network) allocate() {
	for r := 0; r < n.g.N(); r++ {
		if n.occIn[r] == 0 {
			continue
		}
		n.allocateRouter(r)
	}
}

// allocateRouter arbitrates router r's output ports among its input VCs.
// It returns how many input VC heads were eligible to move this cycle
// (whether or not they produced a routable request) and how many were
// granted an output; the event engine clears r's activity bit only when
// the two are equal, so a head that is blocked, loses arbitration, or
// is merely waiting to become stalled-enough to deroute keeps the
// router in the active set.
func (n *Network) allocateRouter(r int) (eligible, granted int) {
	gs := &n.gs
	reqs, eligible := n.gatherRequests(r, gs)
	if len(reqs) == 0 {
		return eligible, 0
	}
	// Eject port first (it frees VCs fastest and models priority to
	// sinking traffic), then each wanted output link in outLinks order
	// (ascending bits of gs.wanted). An output with an empty want list
	// would build zero options and draw no randomness, so skipping it is
	// unobservable.
	if n.ejectBusy[r] <= n.cycle {
		granted += n.arbitrateEject(r, reqs)
	}
	for wi, w := range gs.wanted {
		gs.wanted[wi] = 0
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			wants, out := gs.want[i], n.outLinks[r][i]
			gs.want[i] = wants[:0]
			if n.linkBusy[out] > n.cycle {
				continue
			}
			granted += n.arbitrateLink(r, out, reqs, wants)
		}
	}
	return eligible, granted
}

// gatherRequests lists input VCs of r with a head packet eligible to move
// this cycle and files each under the outputs it may use (gs.want). The
// second result counts every eligible head, including those dropped for
// having no routing candidates right now (deroute/escape eligibility can
// appear with the passage of time alone, so such heads must keep the
// router active).
func (n *Network) gatherRequests(r int, gs *gatherScratch) ([]request, int) {
	eligible := 0
	reqs := gs.reqs[:0]
	for _, l := range n.inLinks[r] {
		if n.occLink[l] == 0 {
			continue
		}
		reqs, eligible = n.considerVCs(r, l, n.linkVC[l], gs, reqs, eligible)
	}
	if n.occLocal[r] != 0 {
		reqs, eligible = n.considerVCs(r, LocalPort, n.localVC[r], gs, reqs, eligible)
	}
	gs.reqs = reqs
	return reqs, eligible
}

// considerVCs appends requests for the eligible heads among one input
// port's VC slots and files each under its candidate outputs.
func (n *Network) considerVCs(r, inLink int, slots []vcSlot, gs *gatherScratch, reqs []request, eligible int) ([]request, int) {
	for s := range slots {
		p := slots[s].pkt
		if p == nil || p.sending || p.readyAt > n.cycle {
			continue
		}
		eligible++
		req := request{pkt: p, inLink: inLink, slot: s}
		if p.Dst == r {
			req.wantEj = true
			reqs = append(reqs, req)
			continue
		}
		mainOuts, escOuts := n.requestCands(r, p)
		if len(mainOuts) > 0 || len(escOuts) > 0 {
			n.fileWants(gs, int32(len(reqs)), mainOuts, escOuts)
			reqs = append(reqs, req)
		}
	}
	return reqs, eligible
}

// requestCands returns the outputs packet p at router r may take this
// cycle from a non-escape and from an escape standpoint. Escape
// discipline (paper §III-A): a packet in an escape VC may only continue
// on escape VCs under EscapeRouting; others may use either. Both are the
// routing table's shared read-only sets.
func (n *Network) requestCands(r int, p *Packet) (mainOuts, escOuts []routing.Candidate) {
	// A long-stalled packet on an unrestricted (adaptive) routing
	// function may deroute over any output, including U-turns.
	stalled := n.cfg.DerouteAfter > 0 && n.cycle-p.readyAt >= int64(n.cfg.DerouteAfter)
	if !n.cfg.PolicyEscape {
		return n.routeCands(n.cfg.Routing, r, p.Dst, p.DownPhase, stalled), nil
	}
	if !p.InEscape {
		mainOuts = n.routeCands(n.cfg.Routing, r, p.Dst, p.DownPhase, stalled)
	}
	if p.InEscape || n.cfg.EscapeAfter <= 0 || n.cycle-p.readyAt >= int64(n.cfg.EscapeAfter) {
		// A packet entering the escape network starts its up*/down*
		// walk fresh.
		escOuts = n.routeCands(n.cfg.EscapeRouting, r, p.Dst, p.DownPhase && p.InEscape, stalled)
	}
	return mainOuts, escOuts
}

// fileWants files request req under every output it has a main or an
// escape candidate for. A candidate list never repeats a LinkID, so the
// request gets one entry per output: an escape candidate merges into the
// main entry just filed for its output, if any, which is that list's
// last. Both lists are often the same routing list (DRAIN routes both
// standpoints alike); it is then filed once with both bits.
func (n *Network) fileWants(gs *gatherScratch, req int32, mainOuts, escOuts []routing.Candidate) {
	same := len(mainOuts) == len(escOuts) && len(mainOuts) > 0 && &mainOuts[0] == &escOuts[0]
	for _, c := range mainOuts {
		w := outWant{req: req, main: candBits{ok: true, downPhase: c.DownPhase, productive: c.Productive}}
		if same {
			w.esc = w.main
		}
		n.addWant(gs, n.outPos[c.LinkID], w)
	}
	if same {
		return
	}
	for _, c := range escOuts {
		i := n.outPos[c.LinkID]
		cb := candBits{ok: true, downPhase: c.DownPhase, productive: c.Productive}
		if list := gs.want[i]; len(list) > 0 && list[len(list)-1].req == req {
			list[len(list)-1].esc = cb
			continue
		}
		n.addWant(gs, i, outWant{req: req, esc: cb})
	}
}

// addWant appends w to output i's want list and marks the output wanted.
func (n *Network) addWant(gs *gatherScratch, i int32, w outWant) {
	gs.want[i] = append(gs.want[i], w)
	gs.wanted[i>>6] |= 1 << (i & 63)
}

// arbitrateEject grants the eject port to one destination packet,
// returning the number of grants made (0 or 1).
func (n *Network) arbitrateEject(r int, reqs []request) int {
	winners := n.buildEjectWinners(r, reqs, n.scrWin[:0])
	n.scrWin = winners
	return n.commitEject(r, reqs, winners)
}

// buildEjectWinners appends the indices (into reqs) of the packets that
// could take r's eject port this cycle.
func (n *Network) buildEjectWinners(r int, reqs []request, winners []int) []int {
	for i := range reqs {
		req := &reqs[i]
		if req.wantEj && !req.pkt.sending && n.ejectSpace(r, req.pkt.Class) {
			winners = append(winners, i)
		}
	}
	return winners
}

// commitEject draws the eject-port winner and applies the grant. Must
// run in ascending router order (it consumes the shared RNG).
func (n *Network) commitEject(r int, reqs []request, winners []int) int {
	if len(winners) == 0 {
		return 0
	}
	p := reqs[winners[n.rng.IntN(len(winners))]].pkt
	p.sending = true
	n.ejectBusy[r] = n.cycle + int64(p.Flits)
	n.eng.addFlight(n, flight{
		pkt: p, doneAt: n.cycle + int64(p.Flits), eject: true, toLink: -1, toRouter: r,
	})
	n.Counters.SWAllocs++
	n.Counters.XbarFlits += int64(p.Flits)
	n.Counters.noteVNActivity(p.VNet, r, n.cycle, int64(p.Flits))
	return 1
}

// arbitrateLink grants output link `out` of router r to one input VC,
// returning the number of grants made (0 or 1).
func (n *Network) arbitrateLink(r, out int, reqs []request, wants []outWant) int {
	options := n.buildLinkOptions(out, reqs, wants, n.scrOpts[:0])
	n.scrOpts = options
	return n.commitLinkGrant(r, out, reqs, options)
}

// buildLinkOptions appends every feasible (request → output slot)
// assignment for link `out` to options, in the request order of its
// want list. A packet granted an earlier output of the same router
// (p.sending) is skipped.
func (n *Network) buildLinkOptions(out int, reqs []request, wants []outWant, options []grant) []grant {
	for i := range wants {
		w := &wants[i]
		req := &reqs[w.req]
		p := req.pkt
		if p.sending {
			continue
		}
		// Conservative VC allocation at the injection port (paper §II-C:
		// fully adaptive routing pairs with conservative allocation): a
		// locally injected packet may not claim the last free VC of the
		// downstream port's VN, so through-traffic always has a hole to
		// move into and the network cannot self-jam into 100% occupancy.
		// With single-VC virtual networks the port rule degenerates, so a
		// bubble-flow-control-style router rule applies instead: the
		// target router must retain a second free buffer in the VN.
		conservativeOK := true
		if req.inLink == LocalPort {
			if n.freeSlotsInVN(out, p.VNet) < min(2, n.cfg.VCsPerVN) {
				conservativeOK = false
			}
			if conservativeOK && n.cfg.VCsPerVN == 1 && n.routerFreeInVN(n.g.Link(out).To, p.VNet) < 2 {
				conservativeOK = false
			}
		}
		if g, ok := n.optionFor(out, w, p, conservativeOK); ok {
			options = append(options, g)
		}
	}
	return options
}

// optionFor computes the grant for want w (of packet p) on output `out`,
// given the conservative-rule outcome. The non-escape path needs a main
// candidate for the output and a free non-escape VC downstream in the
// packet's VNet; failing that, the escape path applies: an escape
// candidate and the escape slot downstream free. A long-stalled local
// packet may claim an escape slot even against the conservative rule:
// drains guarantee escape buffers keep turning over, so this bounded
// bypass restores the injection-progress guarantee (§III-D2) without
// letting injection pack ordinary buffers to 100%.
func (n *Network) optionFor(out int, w *outWant, p *Packet, conservativeOK bool) (grant, bool) {
	if conservativeOK && w.main.ok {
		if slot, ok := n.freeDownstreamSlot(out, p.VNet, false); ok {
			return grant{
				reqIdx: int(w.req), toSlot: slot,
				downPhase: w.main.downPhase, productive: w.main.productive,
			}, true
		}
	}
	if w.esc.ok && (conservativeOK || n.injectBypass(p)) {
		if slot, ok := n.freeDownstreamSlot(out, p.VNet, true); ok {
			return grant{
				reqIdx: int(w.req), toSlot: slot, setEscape: !n.cfg.NonStickyEscape,
				downPhase: w.esc.downPhase, productive: w.esc.productive,
			}, true
		}
	}
	return grant{}, false
}

// commitLinkGrant draws the winner among options and applies the grant.
// Must run in ascending (router, output) order — it consumes
// the shared RNG, and the option sets of later outputs depend on
// earlier winners through p.sending.
func (n *Network) commitLinkGrant(r, out int, reqs []request, options []grant) int {
	if len(options) == 0 {
		return 0
	}
	// Prefer productive grants: deroutes only win an output no minimal
	// packet wants, keeping misrouting a last resort. The filter runs
	// in place (relative order preserved) to stay allocation-free.
	prodCount := 0
	for _, o := range options {
		if o.productive {
			prodCount++
		}
	}
	if prodCount > 0 && prodCount < len(options) {
		kept := options[:0]
		for _, o := range options {
			if o.productive {
				kept = append(kept, o)
			}
		}
		options = kept
	}
	g := options[n.rng.IntN(len(options))]
	req := &reqs[g.reqIdx]
	p := req.pkt
	link := n.g.Link(out)
	p.sending = true
	n.linkBusy[out] = n.cycle + int64(p.Flits)
	dst := &n.linkVC[out][g.toSlot]
	dst.reserved = true
	n.eng.addFlight(n, flight{
		pkt:        p,
		doneAt:     n.cycle + int64(p.Flits),
		toLink:     out,
		toSlot:     g.toSlot,
		toRouter:   link.To,
		setEscape:  g.setEscape,
		downPhase:  g.downPhase,
		productive: g.productive,
	})
	n.Counters.SWAllocs++
	n.Counters.VCAllocs++
	n.Counters.XbarFlits += int64(p.Flits)
	return 1
}

// routeCands returns the shared read-only candidate set for a packet at
// router r heading to dst under algorithm k. A stalled packet on an
// unrestricted adaptive function may deroute over any output.
func (n *Network) routeCands(k routing.Kind, r, dst int, phase, stalled bool) []routing.Candidate {
	if stalled && k == routing.AdaptiveMinimal {
		return n.tab.AllOutputs(r, dst)
	}
	return n.tab.Candidates(k, r, dst, phase)
}

// freeSlotsInVN counts free VC slots of virtual network vn at the input
// port fed by link out.
func (n *Network) freeSlotsInVN(out, vn int) int {
	base := vn * n.cfg.VCsPerVN
	c := 0
	for s := base; s < base+n.cfg.VCsPerVN; s++ {
		if n.linkVC[out][s].free() {
			c++
		}
	}
	return c
}

// injectBypass reports whether a local packet has stalled long enough to
// skip the conservative injection admission (progress guarantee; see
// Config.InjectPatience).
func (n *Network) injectBypass(p *Packet) bool {
	return n.cfg.InjectPatience > 0 && n.cycle-p.readyAt >= int64(n.cfg.InjectPatience)
}

// routerFreeInVN counts free VC slots of virtual network vn across all
// link input ports of the given router.
func (n *Network) routerFreeInVN(router, vn int) int {
	c := 0
	for _, l := range n.inLinks[router] {
		c += n.freeSlotsInVN(l, vn)
	}
	return c
}

// freeDownstreamSlot picks a free VC slot at the input port fed by link
// `out`, within virtual network vn. With escape=false it returns the
// first free non-escape slot; with escape=true, the escape slot if free.
// When PolicyEscape is disabled all slots (including slot 0) are plain
// VCs handled by the escape=false path.
func (n *Network) freeDownstreamSlot(out, vn int, escape bool) (int, bool) {
	base := vn * n.cfg.VCsPerVN
	slots := n.linkVC[out]
	if escape {
		if slots[base].free() {
			return base, true
		}
		return 0, false
	}
	start := base
	if n.cfg.PolicyEscape {
		start = base + 1 // slot 0 is the escape VC: reachable only via the escape path
	}
	for s := start; s < base+n.cfg.VCsPerVN; s++ {
		if slots[s].free() {
			return s, true
		}
	}
	return 0, false
}

// injectFromQueues moves injection-queue heads into free local VCs. The
// injPending count of non-empty queues lets whole cycles skip the
// router × class scan when nothing is waiting.
func (n *Network) injectFromQueues() {
	if n.injPending == 0 {
		return
	}
	for r := 0; r < n.g.N(); r++ {
		n.injectRouterQueues(r)
	}
}

// injectRouterQueues attempts to move each of router r's injection-queue
// heads into a free local VC, reporting whether any queue at r is still
// non-empty afterwards. Injection draws no randomness, so the engines
// can call it on any superset of the routers with queued packets.
func (n *Network) injectRouterQueues(r int) (pending bool) {
	for class := 0; class < n.cfg.Classes; class++ {
		q := &n.injQ[r][class]
		p := q.Peek()
		if p == nil {
			continue
		}
		slot, escape, ok := n.freeLocalSlot(r, p.VNet)
		if !ok {
			pending = true
			continue
		}
		q.Pop()
		if q.Len() == 0 {
			n.injPending--
		} else {
			pending = true
		}
		lv := &n.localVC[r][slot]
		lv.pkt = p
		n.occIn[r]++
		n.occLocal[r]++
		p.atRouter = r
		p.inLink = LocalPort
		p.slot = slot
		p.InjectedAt = n.cycle
		p.readyAt = n.cycle + int64(n.cfg.RouterLatency)
		if escape && !n.cfg.NonStickyEscape {
			p.InEscape = true
		}
		n.Counters.Injected++
		n.Counters.BufWrites += int64(p.Flits)
		n.Counters.noteVNActivity(p.VNet, r, n.cycle, int64(p.Flits))
		n.eng.placed(n, r, p.readyAt)
	}
	return pending
}

// freeLocalSlot picks a free local VC in vn, preferring non-escape slots.
func (n *Network) freeLocalSlot(r, vn int) (slot int, escape, ok bool) {
	base := vn * n.cfg.VCsPerVN
	slots := n.localVC[r]
	if n.cfg.PolicyEscape {
		for s := base + 1; s < base+n.cfg.VCsPerVN; s++ {
			if slots[s].free() {
				return s, false, true
			}
		}
		if slots[base].free() {
			return base, true, true
		}
		return 0, false, false
	}
	for s := base; s < base+n.cfg.VCsPerVN; s++ {
		if slots[s].free() {
			return s, false, true
		}
	}
	return 0, false, false
}
