package noc

import (
	"errors"
	"fmt"
	mathrand "math/rand"
	"slices"
	"testing"
	"testing/quick"

	"drain/internal/routing"
)

// allocTally counts what the reference-allocator replay compared, so a
// test can require that its random configurations reached every option
// flag.
type allocTally struct {
	outputs, options, escape, downPhase, misroute, bypass int
}

// refAllocEngine is the dense engine with its allocate phase replayed
// output by output. At every output of every visited router, wanted or
// not, it builds the option list twice: with buildLinkOptions over the
// output's want list, and with refLinkOptions, the all-requests scan the
// want lists replaced. The first mismatch is kept in err. The grant is
// committed from the want-list options, in allocateRouter's order: eject
// port first, then outputs ascending.
type refAllocEngine struct {
	*denseEngine
	tally *allocTally
	err   error
}

func (e *refAllocEngine) step(n *Network) {
	e.completeFlights(n)
	if n.frozen {
		n.Counters.FrozenCyc++
		return
	}
	for r := 0; r < n.g.N(); r++ {
		if n.occIn[r] != 0 {
			e.allocateRouter(n, r)
		}
	}
	n.injectFromQueues()
}

func (e *refAllocEngine) allocateRouter(n *Network, r int) {
	reqs, _ := n.gatherRequests(r, &n.gs)
	if len(reqs) == 0 {
		return
	}
	if n.ejectBusy[r] <= n.cycle {
		n.arbitrateEject(r, reqs)
	}
	for i, out := range n.outLinks[r] {
		wants := n.gs.want[i]
		marked := n.gs.wanted[i>>6]&(1<<(i&63)) != 0
		if marked != (len(wants) > 0) && e.err == nil {
			e.err = fmt.Errorf("router %d output %d: wanted bit %v with %d wants", r, out, marked, len(wants))
		}
		n.gs.want[i] = wants[:0]
		if n.linkBusy[out] > n.cycle {
			continue
		}
		got := n.buildLinkOptions(out, reqs, wants, nil)
		ref := refLinkOptions(n, r, out, reqs)
		if !slices.Equal(got, ref) && e.err == nil {
			e.err = fmt.Errorf("router %d output %d: want-list options %+v, reference %+v", r, out, got, ref)
		}
		e.tally.outputs++
		for _, g := range got {
			req := &reqs[g.reqIdx]
			escSlot := n.cfg.PolicyEscape && n.cfg.IsEscapeSlot(g.toSlot)
			e.tally.options++
			if escSlot {
				e.tally.escape++
			}
			if g.downPhase {
				e.tally.downPhase++
			}
			if !g.productive {
				e.tally.misroute++
			}
			if escSlot && req.inLink == LocalPort && n.injectBypass(req.pkt) {
				e.tally.bypass++
			}
		}
		n.commitLinkGrant(r, out, reqs, got)
	}
	clear(n.gs.wanted)
}

// refLinkOptions is the option builder the want lists replaced: it
// re-derives every request's routing candidates the way gathering did
// before want lists, then scans all requests for the ones that list
// link out (first match, as a LinkID appears at most once per list).
func refLinkOptions(n *Network, r, out int, reqs []request) []grant {
	var options []grant
	for i := range reqs {
		req := &reqs[i]
		p := req.pkt
		if p.sending || req.wantEj {
			continue
		}
		mainOuts, escOuts := refCands(n, r, p)
		conservativeOK := true
		if req.inLink == LocalPort {
			if n.freeSlotsInVN(out, p.VNet) < min(2, n.cfg.VCsPerVN) {
				conservativeOK = false
			}
			if conservativeOK && n.cfg.VCsPerVN == 1 && n.routerFreeInVN(n.g.Link(out).To, p.VNet) < 2 {
				conservativeOK = false
			}
		}
		if conservativeOK {
			if c, ok := findCand(mainOuts, out); ok {
				if slot, ok2 := n.freeDownstreamSlot(out, p.VNet, false); ok2 {
					options = append(options, grant{reqIdx: i, toSlot: slot, downPhase: c.DownPhase, productive: c.Productive})
					continue
				}
			}
		}
		if !n.cfg.PolicyEscape {
			escOuts = nil
		}
		if conservativeOK || n.injectBypass(p) {
			if c, ok := findCand(escOuts, out); ok {
				if slot, ok2 := n.freeDownstreamSlot(out, p.VNet, true); ok2 {
					options = append(options, grant{
						reqIdx: i, toSlot: slot, setEscape: !n.cfg.NonStickyEscape,
						downPhase: c.DownPhase, productive: c.Productive,
					})
				}
			}
		}
	}
	return options
}

// refCands is gathering's candidate derivation as it stood before
// requestCands: the main and escape candidate sets of packet p at r.
func refCands(n *Network, r int, p *Packet) (mainOuts, escOuts []routing.Candidate) {
	stalled := n.cfg.DerouteAfter > 0 && n.cycle-p.readyAt >= int64(n.cfg.DerouteAfter)
	if n.cfg.PolicyEscape {
		escapeReady := p.InEscape ||
			n.cfg.EscapeAfter <= 0 ||
			n.cycle-p.readyAt >= int64(n.cfg.EscapeAfter)
		if !p.InEscape {
			mainOuts = n.routeCands(n.cfg.Routing, r, p.Dst, p.DownPhase, stalled)
		}
		escPhase := p.DownPhase
		if !p.InEscape {
			escPhase = false
		}
		if escapeReady {
			escOuts = n.routeCands(n.cfg.EscapeRouting, r, p.Dst, escPhase, stalled)
		}
	} else {
		mainOuts = n.routeCands(n.cfg.Routing, r, p.Dst, p.DownPhase, stalled)
	}
	return mainOuts, escOuts
}

// findCand returns the candidate targeting link out, if present.
func findCand(cands []routing.Candidate, out int) (routing.Candidate, bool) {
	for _, c := range cands {
		if c.LinkID == out {
			return c, true
		}
	}
	return routing.Candidate{}, false
}

// TestAllocatorMatchesReference holds the want-list allocator to the
// all-requests option scan it replaced, output by output, over the
// lockstep configuration generator: VCsPerVN 1–3, plain and escape VCs
// (sticky or not, adaptive or up*/down* escape routing), the
// InjectPatience, DerouteAfter and EscapeAfter knobs, and live
// fault/restore plans. The dense-vs-event lockstep alone cannot catch a
// wrong option list, because both engines call the same allocateRouter.
func TestAllocatorMatchesReference(t *testing.T) {
	var tally allocTally
	f := func(seed uint64, nRaw, vnRaw, vcRaw, escRaw uint8) bool {
		err := checkDenseVsEvent(seed, nRaw, vnRaw, vcRaw, escRaw, &tally)
		if err != nil && !errors.Is(err, errSkip) {
			t.Logf("seed=%d nRaw=%d vnRaw=%d vcRaw=%d escRaw=%d: %v", seed, nRaw, vnRaw, vcRaw, escRaw, err)
			return false
		}
		return true
	}
	// A fixed input stream keeps the coverage floor below deterministic.
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: mathrand.New(mathrand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", tally)
	// The configurations must reach every kind of option, or the
	// comparison above proves less than it claims.
	for _, c := range []struct {
		name string
		n    int
	}{
		{"arbitrated output", tally.outputs}, {"option", tally.options},
		{"escape-slot option", tally.escape}, {"down-phase option", tally.downPhase},
		{"misroute option", tally.misroute}, {"patient local escape option", tally.bypass},
	} {
		if c.n == 0 {
			t.Errorf("no %s compared: the generator lost coverage", c.name)
		}
	}
}
