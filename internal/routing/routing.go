// Package routing implements the routing algorithms used by the DRAIN
// paper's evaluation (Table II): dimension-order (XY) routing on regular
// meshes, fully adaptive minimal routing on arbitrary graphs, and
// topology-agnostic up*/down* routing for irregular/faulty networks.
//
// All algorithms are table-driven: NewTable precomputes the per-
// destination structures once per topology (the paper recomputes routing
// state offline whenever a fault occurs), and Candidates answers per-hop
// queries without allocation. The state is compact — four bytes per
// (router, destination) pair plus a few interned candidate lists per
// router — so building it stays a small share of a run on large meshes.
package routing

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"drain/internal/topology"
)

// Kind selects a routing algorithm.
type Kind int

const (
	// AdaptiveMinimal routes over any output that strictly reduces the
	// BFS hop distance to the destination ("fully adaptive random" in the
	// paper once the caller randomizes among candidates).
	AdaptiveMinimal Kind = iota
	// XY is dimension-order routing on a 2D mesh: X fully, then Y.
	// Deadlock-free on fault-free meshes; unusable with faults.
	XY
	// UpDown is up*/down* routing over a BFS spanning tree: a route may
	// never take an "up" link after a "down" link. Deadlock-free on any
	// connected topology, at the cost of non-minimal paths.
	UpDown
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case AdaptiveMinimal:
		return "adaptive"
	case XY:
		return "xy"
	case UpDown:
		return "updown"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Candidate is one legal output for a packet at a router.
type Candidate struct {
	LinkID int // outgoing unidirectional link to take
	// DownPhase is the packet's up*/down* phase after taking this link
	// (true once any down link has been taken). Meaningless for other
	// algorithms; preserved as-is.
	DownPhase bool
	// Productive reports whether the hop strictly reduces the true BFS
	// distance to the destination (used for misroute accounting).
	Productive bool
}

// Table holds precomputed routing state for one topology.
//
// Per (router, destination) pair it stores a 16-bit BFS distance and a
// 16-bit cell id. A cell is one distinct combination, at that router, of
// three masks over the router's ports (its outputs in Neighbors order):
// the productive ports, which reduce the BFS distance, and the ports
// that are legal and minimal under up*/down* from phase 0 and from phase
// 1. A router sees few distinct combinations, so each interns its cells,
// and each cell's candidate lists are materialized once, back to back,
// in one shared arena:
//
//	AllOutputs (k) | AllOutputsPreferProductive (k) | up*/down* phase 0 | phase 1
//
// where k is the router's degree; the AdaptiveMinimal set is the
// productive prefix of the second list. XY keeps no per-pair state: the
// hop is one of four per-router directions chosen from mesh coordinates.
//
// Candidates and AllOutputs return slices of that arena directly:
// callers MUST treat them as read-only and MUST NOT append to, re-sort,
// or otherwise mutate them (doing so would corrupt the answer for every
// later query). Copy first if a mutable view is needed.
type Table struct {
	g    *topology.Graph
	mesh *topology.Mesh // nil unless XY requested
	n    int

	dist []uint16 // dist[a*n+b]: BFS hop distance (symmetric)

	// udOrder ranks routers by (BFS level from the up*/down* root, id):
	// a link u→v is "up" iff udOrder[v] < udOrder[u].
	udOrder []int

	cellOf   []uint16 // cellOf[dst*n+at]: at's local id of its cell for dst
	cellBase []uint32 // at's cells start at cells[cellBase[at]]
	cells    []cell
	cands    []Candidate // the arena every cell's lists live in

	// xy[4*at+dir] is the hop out of at toward +x, -x, +y, -y (dir 0-3);
	// LinkID is -1 where that link does not exist. Nil without a mesh.
	xy []Candidate
}

// cell locates one interned mask combination's lists in Table.cands (see
// Table for the layout).
type cell struct {
	off              uint32
	k, nProd, n0, n1 uint16
}

// maxRouters bounds the router count: distances and per-router cell ids
// (at most one new cell per destination) are 16-bit.
const maxRouters = math.MaxUint16

// NewTable precomputes routing state for g. mesh may be nil; it is
// required only to answer XY queries. up*/down* numbering is rooted at
// router 0 over a BFS spanning tree.
func NewTable(g *topology.Graph, mesh *topology.Mesh) (*Table, error) {
	return NewTableWithRoot(g, mesh, 0)
}

// NewTableWithRoot is NewTable with an explicit up*/down* root router.
// Root placement determines how much up*/down* stretches routes and how
// badly traffic concentrates around the root (classic Autonet-style
// numbering picks an arbitrary root; the paper's Fig. 5 gap follows).
func NewTableWithRoot(g *topology.Graph, mesh *topology.Mesh, root int) (*Table, error) {
	return build(g, mesh, root, g)
}

// NewTableRemapped builds routing state over the active subgraph (the
// topology with currently-failed links removed) but expresses every
// candidate's LinkID in full's link-ID space, so a network whose dense
// per-link arrays were sized for the full topology can swap the table in
// mid-run without renumbering anything. Only the per-router port lists
// are translated (O(links)); the candidate lists are built from them.
//
// active must have the same routers as full and an edge set that is a
// subset of full's. Distances, up*/down* numbering and Productive flags
// are all computed over active — failed links simply do not appear in
// any candidate set, including the AllOutputs deroute sets. XY is not
// built (it is illegal on faulted meshes anyway): Graph() returns
// active.
func NewTableRemapped(active, full *topology.Graph, root int) (*Table, error) {
	if active.N() != full.N() {
		return nil, fmt.Errorf("routing: active subgraph has %d routers, full graph %d", active.N(), full.N())
	}
	return build(active, nil, root, full)
}

// Dist returns the BFS hop distance from r to dst.
func (t *Table) Dist(r, dst int) int { return int(t.dist[r*t.n+dst]) }

// Graph returns the topology the table was built for.
func (t *Table) Graph() *topology.Graph { return t.g }

// IsUp reports whether the link from→to travels "up" (toward the
// spanning-tree root) under the table's up*/down* ordering.
func (t *Table) IsUp(from, to int) bool { return t.udOrder[to] < t.udOrder[from] }

// AllOutputs returns every outgoing link of router `at` as a candidate
// (including U-turns — the paper's assumption 3 permits every turn),
// with Productive computed against the BFS distance. This is the
// "fully adaptive" candidate set: an unrestricted-routing packet that
// has stalled may deroute over any output (misrouting is legal; DRAIN's
// full drains guard against livelock).
//
// The returned slice is shared and read-only: it aliases the table's
// precomputed state and must not be modified or appended to.
func (t *Table) AllOutputs(at, dst int) []Candidate {
	c := t.cell(at, dst)
	return t.span(c.off, c.k)
}

// AllOutputsPreferProductive is AllOutputs with the productive candidates
// ordered first (the liveness analysis follows the first blocked target,
// so forced rotations should track desired moves). Same read-only
// contract as AllOutputs.
func (t *Table) AllOutputsPreferProductive(at, dst int) []Candidate {
	c := t.cell(at, dst)
	return t.span(c.off+uint32(c.k), c.k)
}

// Candidates returns the legal next-hop candidates for a packet at router
// `at` heading to dst under algorithm k. downPhase is the packet's
// current up*/down* phase; for AdaptiveMinimal and XY it is ignored and
// the returned candidates carry DownPhase=false (the phase is meaningless
// outside up*/down* and is never consumed for such packets). At the
// destination router it returns no candidates — the caller ejects
// instead. No list, here or from AllOutputs/AllOutputsPreferProductive,
// names a LinkID twice: the allocator files a request under each listed
// output once and relies on it (internal/routing/oracle_test.go checks
// every list).
//
// The returned slice is shared and read-only: it aliases the table's
// precomputed state and must not be modified or appended to.
func (t *Table) Candidates(k Kind, at, dst int, downPhase bool) []Candidate {
	switch k {
	case AdaptiveMinimal:
		c := t.cell(at, dst)
		return t.span(c.off+uint32(c.k), c.nProd)
	case XY:
		return t.xyHop(at, dst)
	case UpDown:
		c := t.cell(at, dst)
		off := c.off + 2*uint32(c.k)
		if downPhase {
			return t.span(off+uint32(c.n0), c.n1)
		}
		return t.span(off, c.n0)
	}
	return nil
}

func (t *Table) cell(at, dst int) *cell {
	return &t.cells[t.cellBase[at]+uint32(t.cellOf[dst*t.n+at])]
}

// span returns n arena entries from off; empty sets are nil.
func (t *Table) span(off uint32, n uint16) []Candidate {
	if n == 0 {
		return nil
	}
	end := off + uint32(n)
	return t.cands[off:end:end]
}

// xyHop returns the dimension-order hop: X fully, then Y.
func (t *Table) xyHop(at, dst int) []Candidate {
	if t.xy == nil || at == dst {
		return nil
	}
	x, y := t.mesh.XY(at)
	dx, dy := t.mesh.XY(dst)
	i := 4 * at
	switch {
	case x < dx:
	case x > dx:
		i++
	case y < dy:
		i += 2
	default:
		i += 3
	}
	if t.xy[i].LinkID < 0 {
		return nil
	}
	return t.xy[i : i+1 : i+1]
}

// port is one router output during construction.
type port struct {
	link, to int32 // link ID in the table's link-ID space; neighbor router
	up       bool  // the hop travels up*/down* "up"
}

// build computes the table for g. Candidates name links in ids's link-ID
// space: g itself, or the full graph for NewTableRemapped.
func build(g *topology.Graph, mesh *topology.Mesh, root int, ids *topology.Graph) (*Table, error) {
	n := g.N()
	switch {
	case !g.Connected():
		return nil, fmt.Errorf("routing: topology is disconnected")
	case root < 0 || root >= n:
		return nil, fmt.Errorf("routing: up*/down* root %d out of range", root)
	case n > maxRouters:
		return nil, fmt.Errorf("routing: %d routers exceed the table limit of %d", n, maxRouters)
	}
	t := &Table{g: g, mesh: mesh, n: n}
	// Router r's ports are ports[base[r]:base[r+1]], in Neighbors order.
	base := make([]int, n+1)
	ports := make([]port, 0, g.NumLinks())
	for r := 0; r < n; r++ {
		for _, nb := range g.Neighbors(r) {
			id, ok := ids.LinkID(r, nb)
			if !ok {
				return nil, fmt.Errorf("routing: active link %d->%d is not part of the full graph", r, nb)
			}
			ports = append(ports, port{link: int32(id), to: int32(nb)})
		}
		base[r+1] = len(ports)
	}
	t.buildDist(ports, base)
	t.rankUpDown(root)
	for r := 0; r < n; r++ {
		for i := base[r]; i < base[r+1]; i++ {
			ports[i].up = t.IsUp(r, int(ports[i].to))
		}
	}
	if mesh != nil {
		t.buildXY(ports, base)
	}
	if err := t.buildCells(ports, base); err != nil {
		return nil, err
	}
	return t, nil
}

// buildDist fills dist with one BFS per source router.
func (t *Table) buildDist(ports []port, base []int) {
	n := t.n
	t.dist = make([]uint16, n*n)
	queue := make([]int32, 0, n)
	for src := 0; src < n; src++ {
		row := t.dist[src*n : (src+1)*n]
		for i := range row {
			row[i] = math.MaxUint16
		}
		row[src] = 0
		queue = append(queue[:0], int32(src))
		for h := 0; h < len(queue); h++ {
			r := queue[h]
			for _, p := range ports[base[r]:base[r+1]] {
				if row[p.to] == math.MaxUint16 {
					row[p.to] = row[r] + 1
					queue = append(queue, p.to)
				}
			}
		}
	}
}

// rankUpDown assigns the up*/down* order: routers sorted by BFS level
// from the root, then by id, so every link has exactly one direction.
func (t *Table) rankUpDown(root int) {
	level := t.dist[root*t.n : (root+1)*t.n]
	byRank := make([]int, t.n)
	for i := range byRank {
		byRank[i] = i
	}
	slices.SortFunc(byRank, func(a, b int) int {
		return cmp.Or(cmp.Compare(level[a], level[b]), cmp.Compare(a, b))
	})
	t.udOrder = make([]int, t.n)
	for rank, r := range byRank {
		t.udOrder[r] = rank
	}
}

// buildXY records each router's four dimension-order hops. Off-mesh
// directions hold junk; xyHop never asks for them.
func (t *Table) buildXY(ports []port, base []int) {
	m := t.mesh
	t.xy = make([]Candidate, 4*t.n)
	for at := 0; at < t.n; at++ {
		x, y := m.XY(at)
		for dir, nb := range [4]int{m.RouterAt(x+1, y), m.RouterAt(x-1, y), m.RouterAt(x, y+1), m.RouterAt(x, y-1)} {
			c := Candidate{LinkID: -1, Productive: true}
			for _, p := range ports[base[at]:base[at+1]] {
				if int(p.to) == nb {
					c.LinkID = int(p.link)
				}
			}
			t.xy[4*at+dir] = c
		}
	}
}

// buildCells computes, destination by destination, every router's three
// port masks and interns each distinct (router, masks) key as a cell.
func (t *Table) buildCells(ports []port, base []int) error {
	n := t.n
	maxDeg := 0
	for r := 0; r < n; r++ {
		maxDeg = max(maxDeg, base[r+1]-base[r])
	}
	w := maxDeg/64 + 1 // words per mask
	// keys[at*kw:] is at's current key: at, then its productive, phase-0
	// and phase-1 masks for the destination being processed.
	kw := 1 + 3*w
	keys := make([]uint64, n*kw)
	for at := 0; at < n; at++ {
		keys[at*kw] = uint64(at)
	}
	in := interner{w: kw}
	var made []cell    // cells in interning order
	var local []uint16 // each interned cell's id within its router
	count := make([]int, n)
	t.cellOf = make([]uint16, n*n)
	hops := make([]int32, 2*n)
	queue := make([]int32, 0, 2*n)
	for dst := 0; dst < n; dst++ {
		queue = upDownHops(dst, ports, base, hops, queue)
		row := t.dist[dst*n : (dst+1)*n] // row[r] is Dist(r, dst) by symmetry
		for at := 0; at < n; at++ {
			ps, key := ports[base[at]:base[at+1]], keys[at*kw:(at+1)*kw]
			cur, c0, c1 := row[at], hops[2*at], hops[2*at+1]
			if at != dst && c0 < 0 {
				return fmt.Errorf("routing: up*/down* cannot reach %d from %d", dst, at)
			}
			// Masks are built 64 ports at a time. A minimal up*/down* hop
			// lands one hop closer in the phase it enters; an unreachable
			// state (-1) never matches, nor does anything when c1 is -1.
			changed := dst == 0
			for word := 0; word < w; word++ {
				var pm, m0, m1 uint64
				if at != dst {
					for i, p := range ps[min(64*word, len(ps)):min(64*word+64, len(ps))] {
						bit := uint64(1) << i
						if row[p.to] < cur {
							pm |= bit
						}
						next := 2 * p.to
						if !p.up {
							next++ // a down hop enters phase 1
						}
						if hops[next] == c0-1 {
							m0 |= bit
						}
						if !p.up && hops[2*p.to+1] == c1-1 {
							m1 |= bit
						}
					}
				}
				if key[1+word] != pm || key[1+w+word] != m0 || key[1+2*w+word] != m1 {
					key[1+word], key[1+w+word], key[1+2*w+word] = pm, m0, m1
					changed = true
				}
			}
			if !changed { // same masks as for the previous destination
				t.cellOf[dst*n+at] = t.cellOf[(dst-1)*n+at]
				continue
			}
			e, added := in.intern(key)
			if added {
				made = append(made, t.materialize(ps, at == dst, key[1:1+w], key[1+w:1+2*w], key[1+2*w:]))
				local = append(local, uint16(count[at]))
				count[at]++
			}
			t.cellOf[dst*n+at] = local[e]
		}
	}
	// Regroup the cells router by router so cellBase[at]+local finds them.
	t.cellBase = make([]uint32, n)
	total := 0
	for r, c := range count {
		t.cellBase[r] = uint32(total)
		total += c
	}
	t.cells = make([]cell, len(made))
	for e, c := range made {
		at := in.keys[e*in.w]
		t.cells[t.cellBase[at]+uint32(local[e])] = c
	}
	return nil
}

// upDownHops fills hops[2r+phase] with the fewest legal up*/down* hops
// from router r in that phase to dst (-1 if none) by BFS over the
// reversed phase-product graph, whose edges are (u,0) --up--> (v,0),
// (u,0) --down--> (v,1) and (u,1) --down--> (v,1). It returns queue for
// reuse.
func upDownHops(dst int, ports []port, base []int, hops, queue []int32) []int32 {
	for i := range hops {
		hops[i] = -1
	}
	hops[2*dst], hops[2*dst+1] = 0, 0
	queue = append(queue[:0], int32(2*dst), int32(2*dst+1))
	for h := 0; h < len(queue); h++ {
		s := queue[h]
		v, next := s/2, hops[s]+1
		for _, p := range ports[base[v]:base[v+1]] {
			// p is v→u, so u→v is up exactly when p is down.
			u, upToV := p.to, !p.up
			switch {
			case s%2 == 0 && upToV:
				if hops[2*u] < 0 {
					hops[2*u] = next
					queue = append(queue, 2*u)
				}
			case s%2 == 1 && !upToV:
				for _, pred := range [2]int32{2 * u, 2*u + 1} {
					if hops[pred] < 0 {
						hops[pred] = next
						queue = append(queue, pred)
					}
				}
			}
		}
	}
	return queue
}

// materialize appends one cell's lists to the arena (layout in Table) and
// returns the cell. At the destination every list is empty: it ejects.
func (t *Table) materialize(ps []port, atDst bool, prod, ud0, ud1 []uint64) cell {
	c := cell{off: uint32(len(t.cands))}
	if atDst {
		return c
	}
	c.k = uint16(len(ps))
	for i, p := range ps {
		t.cands = append(t.cands, Candidate{LinkID: int(p.link), Productive: hasBit(prod, i)})
	}
	for i, p := range ps {
		if hasBit(prod, i) {
			t.cands = append(t.cands, Candidate{LinkID: int(p.link), Productive: true})
			c.nProd++
		}
	}
	for i, p := range ps {
		if !hasBit(prod, i) {
			t.cands = append(t.cands, Candidate{LinkID: int(p.link)})
		}
	}
	for i, p := range ps {
		if hasBit(ud0, i) {
			t.cands = append(t.cands, Candidate{LinkID: int(p.link), DownPhase: !p.up, Productive: hasBit(prod, i)})
			c.n0++
		}
	}
	for i, p := range ps {
		if hasBit(ud1, i) {
			t.cands = append(t.cands, Candidate{LinkID: int(p.link), DownPhase: true, Productive: hasBit(prod, i)})
			c.n1++
		}
	}
	return c
}

func hasBit(mask []uint64, i int) bool { return mask[i/64]&(1<<(i%64)) != 0 }

// interner assigns dense ids, in first-seen order, to distinct keys of w
// words through an open-addressed index over a flat key store.
type interner struct {
	w     int
	keys  []uint64 // key e is keys[e*w : (e+1)*w]
	slots []int32  // e+1 per occupied slot, 0 if empty; power-of-two length
}

// intern returns key's id, adding the key if it is new.
func (in *interner) intern(key []uint64) (e int, added bool) {
	count := len(in.keys) / in.w
	if 2*(count+1) > len(in.slots) {
		in.grow()
	}
	mask := len(in.slots) - 1
	for i := int(hashWords(key)) & mask; ; i = (i + 1) & mask {
		s := in.slots[i]
		if s == 0 {
			in.slots[i] = int32(count + 1)
			in.keys = append(in.keys, key...)
			return count, true
		}
		if e := int(s - 1); slices.Equal(in.keys[e*in.w:(e+1)*in.w], key) {
			return e, false
		}
	}
}

// grow doubles the index and reinserts every key.
func (in *interner) grow() {
	in.slots = make([]int32, max(64, 2*len(in.slots)))
	mask := len(in.slots) - 1
	for e := 0; e < len(in.keys)/in.w; e++ {
		i := int(hashWords(in.keys[e*in.w:(e+1)*in.w])) & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = int32(e + 1)
	}
}

// hashWords folds a key multiplicatively, then avalanches the result with
// the splitmix64 finalizer.
func hashWords(key []uint64) uint64 {
	var h uint64
	for _, x := range key {
		h = bits.RotateLeft64((h^x)*0x9e3779b97f4a7c15, 31)
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}
