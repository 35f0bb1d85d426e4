package noc

import "fmt"

// CheckInvariants validates internal consistency; tests call it between
// steps. It returns the first violation found.
func (n *Network) CheckInvariants() error {
	for i, w := range n.gs.want {
		if len(w) != 0 || n.gs.wanted[i>>6]&(1<<(i&63)) != 0 {
			return fmt.Errorf("noc: want list %d holds %d entries between steps (allocateRouter empties every list it fills)", i, len(w))
		}
	}
	seen := make(map[int64]string)
	note := func(p *Packet, where string) error {
		if p.pooled {
			return fmt.Errorf("noc: packet %d at %s is marked pooled (use after release)", p.ID, where)
		}
		if prev, dup := seen[p.ID]; dup {
			return fmt.Errorf("noc: packet %d in two places: %s and %s", p.ID, prev, where)
		}
		seen[p.ID] = where
		return nil
	}
	for l := 0; l < n.g.NumLinks(); l++ {
		router := n.g.Link(l).To
		for s := range n.linkVC[l] {
			p := n.linkVC[l][s].pkt
			if p == nil {
				continue
			}
			if err := note(p, fmt.Sprintf("linkVC[%d][%d]", l, s)); err != nil {
				return err
			}
			if p.atRouter != router || p.inLink != l || p.slot != s {
				return fmt.Errorf("noc: packet %d position fields (%d,%d,%d) disagree with linkVC[%d][%d] at router %d",
					p.ID, p.atRouter, p.inLink, p.slot, l, s, router)
			}
			if n.cfg.PolicyEscape && p.InEscape && !n.cfg.IsEscapeSlot(s) {
				return fmt.Errorf("noc: escape packet %d occupies non-escape slot %d", p.ID, s)
			}
			if p.VNet != s/n.cfg.VCsPerVN {
				return fmt.Errorf("noc: packet %d of VN %d occupies slot %d of VN %d", p.ID, p.VNet, s, s/n.cfg.VCsPerVN)
			}
		}
	}
	for r := 0; r < n.g.N(); r++ {
		for s := range n.localVC[r] {
			p := n.localVC[r][s].pkt
			if p == nil {
				continue
			}
			if err := note(p, fmt.Sprintf("localVC[%d][%d]", r, s)); err != nil {
				return err
			}
			if p.atRouter != r || p.inLink != LocalPort || p.slot != s {
				return fmt.Errorf("noc: packet %d local position fields inconsistent", p.ID)
			}
		}
	}
	var flightErr error
	n.eng.eachFlight(func(f *flight) {
		if flightErr != nil {
			return
		}
		if !f.pkt.sending {
			flightErr = fmt.Errorf("noc: in-flight packet %d not marked sending", f.pkt.ID)
			return
		}
		if !f.eject && !n.linkVC[f.toLink][f.toSlot].reserved {
			flightErr = fmt.Errorf("noc: in-flight packet %d target slot not reserved", f.pkt.ID)
		}
	})
	if flightErr != nil {
		return flightErr
	}
	// The incremental active-router occupancy counts must agree with a
	// full recount (allocate() relies on them to skip idle routers).
	for r := 0; r < n.g.N(); r++ {
		count := int32(0)
		for _, l := range n.inLinks[r] {
			for s := range n.linkVC[l] {
				if n.linkVC[l][s].pkt != nil {
					count++
				}
			}
		}
		for s := range n.localVC[r] {
			if n.localVC[r][s].pkt != nil {
				count++
			}
		}
		if n.occIn[r] != count {
			return fmt.Errorf("noc: router %d occupancy count %d, recount %d", r, n.occIn[r], count)
		}
	}
	// Per-port occupancy counts (request gathering skips empty ports).
	for l := 0; l < n.g.NumLinks(); l++ {
		count := int32(0)
		for s := range n.linkVC[l] {
			if n.linkVC[l][s].pkt != nil {
				count++
			}
		}
		if n.occLink[l] != count {
			return fmt.Errorf("noc: link %d port occupancy %d, recount %d", l, n.occLink[l], count)
		}
	}
	for r := 0; r < n.g.N(); r++ {
		count := int32(0)
		for s := range n.localVC[r] {
			if n.localVC[r][s].pkt != nil {
				count++
			}
		}
		if n.occLocal[r] != count {
			return fmt.Errorf("noc: router %d local port occupancy %d, recount %d", r, n.occLocal[r], count)
		}
	}
	// Failed links must be draining-only: no reservations (their flights
	// were dropped at reconfiguration) and no buffered non-sending
	// packets (evacuated or dropped); only a sending occupant departing
	// over a surviving link may remain until its flight lands.
	for l := range n.linkDown {
		if !n.linkDown[l] {
			continue
		}
		for s := range n.linkVC[l] {
			if n.linkVC[l][s].reserved {
				return fmt.Errorf("noc: failed link %d slot %d is reserved", l, s)
			}
			if p := n.linkVC[l][s].pkt; p != nil && !p.sending {
				return fmt.Errorf("noc: failed link %d slot %d holds stranded packet %d", l, s, p.ID)
			}
		}
	}
	// The incremental non-empty-injection-queue count must agree with a
	// full recount (injectFromQueues relies on it to skip empty cycles).
	// The same sweep notes every queued packet, so the pool check below
	// sees the complete live set.
	injCount := 0
	for r := 0; r < n.g.N(); r++ {
		for c := range n.injQ[r] {
			q := &n.injQ[r][c]
			if q.Len() > 0 {
				injCount++
			}
			for i := 0; i < q.n; i++ {
				if err := note(q.buf[(q.head+i)%len(q.buf)], fmt.Sprintf("injQ[%d][%d]", r, c)); err != nil {
					return err
				}
			}
		}
		for c := range n.ejQ[r] {
			q := &n.ejQ[r][c]
			for i := 0; i < q.n; i++ {
				if err := note(q.buf[(q.head+i)%len(q.buf)], fmt.Sprintf("ejQ[%d][%d]", r, c)); err != nil {
					return err
				}
			}
		}
	}
	if n.injPending != injCount {
		return fmt.Errorf("noc: injPending %d, recount %d", n.injPending, injCount)
	}
	// Pool safety: every free-list entry is marked pooled, appears only
	// once, and is not simultaneously live anywhere the sweeps above saw —
	// a packet may never be both free and in flight.
	freeSeen := make(map[*Packet]bool, len(n.freePkts))
	for i, p := range n.freePkts {
		if !p.pooled {
			return fmt.Errorf("noc: free-list entry %d (packet %d) not marked pooled", i, p.ID)
		}
		if freeSeen[p] {
			return fmt.Errorf("noc: packet %d appears twice in the free list (double release)", p.ID)
		}
		freeSeen[p] = true
		if where, live := seen[p.ID]; live {
			return fmt.Errorf("noc: packet %d is both free and live at %s", p.ID, where)
		}
	}
	// Engine-internal invariants (timing wheel, activity bitmaps).
	return n.eng.check(n)
}
