package routing

import (
	"fmt"
	"sort"
	"testing"

	"drain/internal/topology"
)

// refTable is the reference the compact Table is checked against: the
// straightforward per-pair generators, evaluated on demand over plain
// [][]int distance tables. It answers every query by recomputation, so
// it is slow but obviously faithful to the routing definitions.
type refTable struct {
	g    *topology.Graph
	mesh *topology.Mesh
	full *topology.Graph // link-ID space of the answers (g unless remapped)

	dist    [][]int // dist[r][dst] BFS hop distance
	udOrder []int
	distUD  [][]int // distUD[dst][router*2+phase]; -1 if unreachable
}

func newRefTable(t testing.TB, g *topology.Graph, mesh *topology.Mesh, root int, full *topology.Graph) *refTable {
	t.Helper()
	if full == nil {
		full = g
	}
	r := &refTable{g: g, mesh: mesh, full: full, dist: make([][]int, g.N())}
	for src := range r.dist {
		r.dist[src] = g.BFSDist(src)
	}
	r.buildUpDown(root)
	return r
}

// buildUpDown ranks routers by (BFS level from root, id) and computes the
// legal up*/down* distance to every destination by BFS over the reversed
// phase-product graph.
func (r *refTable) buildUpDown(root int) {
	g := r.g
	level := g.BFSDist(root)
	byRank := make([]int, g.N())
	for i := range byRank {
		byRank[i] = i
	}
	sort.Slice(byRank, func(a, b int) bool {
		if level[byRank[a]] != level[byRank[b]] {
			return level[byRank[a]] < level[byRank[b]]
		}
		return byRank[a] < byRank[b]
	})
	r.udOrder = make([]int, g.N())
	for rank, v := range byRank {
		r.udOrder[v] = rank
	}
	r.distUD = make([][]int, g.N())
	for dst := 0; dst < g.N(); dst++ {
		d := make([]int, g.N()*2)
		for i := range d {
			d[i] = -1
		}
		d[dst*2+0], d[dst*2+1] = 0, 0
		queue := []int{dst*2 + 0, dst*2 + 1}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			v, pv := s/2, s%2
			for _, u := range g.Neighbors(v) {
				up := r.isUp(u, v)
				var preds []int
				if pv == 0 {
					if up {
						preds = []int{u*2 + 0}
					}
				} else if !up {
					preds = []int{u*2 + 0, u*2 + 1}
				}
				for _, p := range preds {
					if d[p] < 0 {
						d[p] = d[s] + 1
						queue = append(queue, p)
					}
				}
			}
		}
		r.distUD[dst] = d
	}
}

func (r *refTable) isUp(from, to int) bool { return r.udOrder[to] < r.udOrder[from] }

// upDownDist is the minimum number of legal up*/down* hops from at (in
// the given phase) to dst, or -1 if unreachable in that phase.
func (r *refTable) upDownDist(at int, downPhase bool, dst int) int {
	ph := 0
	if downPhase {
		ph = 1
	}
	return r.distUD[dst][at*2+ph]
}

// linkID names the link from→to in the answer's link-ID space.
func (r *refTable) linkID(from, to int) int {
	id, ok := r.full.LinkID(from, to)
	if !ok {
		panic(fmt.Sprintf("link %d->%d missing from the full graph", from, to))
	}
	return id
}

func (r *refTable) allOutputs(at, dst int) []Candidate {
	if at == dst {
		return nil
	}
	var out []Candidate
	cur := r.dist[at][dst]
	for _, nb := range r.g.Neighbors(at) {
		out = append(out, Candidate{LinkID: r.linkID(at, nb), Productive: r.dist[nb][dst] < cur})
	}
	return out
}

func (r *refTable) allOutputsPreferProductive(at, dst int) []Candidate {
	var out []Candidate
	all := r.allOutputs(at, dst)
	for _, c := range all {
		if c.Productive {
			out = append(out, c)
		}
	}
	for _, c := range all {
		if !c.Productive {
			out = append(out, c)
		}
	}
	return out
}

func (r *refTable) adaptive(at, dst int) []Candidate {
	if at == dst {
		return nil
	}
	var out []Candidate
	cur := r.dist[at][dst]
	for _, nb := range r.g.Neighbors(at) {
		if r.dist[nb][dst] < cur {
			out = append(out, Candidate{LinkID: r.linkID(at, nb), Productive: true})
		}
	}
	return out
}

func (r *refTable) xy(at, dst int) []Candidate {
	if at == dst || r.mesh == nil {
		return nil
	}
	m := r.mesh
	x, y := m.XY(at)
	dx, dy := m.XY(dst)
	var next int
	switch {
	case x < dx:
		next = m.RouterAt(x+1, y)
	case x > dx:
		next = m.RouterAt(x-1, y)
	case y < dy:
		next = m.RouterAt(x, y+1)
	default:
		next = m.RouterAt(x, y-1)
	}
	if !r.g.HasEdge(at, next) {
		return nil
	}
	return []Candidate{{LinkID: r.linkID(at, next), Productive: true}}
}

func (r *refTable) upDown(at, dst int, downPhase bool) []Candidate {
	if at == dst {
		return nil
	}
	cur := r.upDownDist(at, downPhase, dst)
	if cur < 0 {
		return nil
	}
	var out []Candidate
	for _, nb := range r.g.Neighbors(at) {
		up := r.isUp(at, nb)
		if downPhase && up {
			continue // an up turn after going down is illegal
		}
		nextPhase := downPhase || !up
		if r.upDownDist(nb, nextPhase, dst) == cur-1 {
			out = append(out, Candidate{
				LinkID:     r.linkID(at, nb),
				DownPhase:  nextPhase,
				Productive: r.dist[nb][dst] < r.dist[at][dst],
			})
		}
	}
	return out
}

// checkAgainstRef compares every candidate set of tab with ref, element
// by element, for every (kind, at, dst, phase), and holds every set to
// the no-repeated-LinkID contract of Candidates (the allocator files a
// request at most once per output on the strength of it).
func checkAgainstRef(t *testing.T, name string, tab *Table, ref *refTable) {
	t.Helper()
	n := ref.g.N()
	seen := make([]bool, ref.full.NumLinks())
	same := func(what string, at, dst int, got, want []Candidate) {
		t.Helper()
		for _, c := range got {
			if seen[c.LinkID] {
				t.Fatalf("%s: %s at %d→%d repeats link %d: %v", name, what, at, dst, c.LinkID, got)
			}
			seen[c.LinkID] = true
		}
		for _, c := range got {
			seen[c.LinkID] = false
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %s at %d→%d: %d candidates %v, want %d %v", name, what, at, dst, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s at %d→%d: candidate %d is %+v, want %+v", name, what, at, dst, i, got[i], want[i])
			}
		}
	}
	for at := 0; at < n; at++ {
		for dst := 0; dst < n; dst++ {
			if got, want := tab.Dist(at, dst), ref.dist[at][dst]; got != want {
				t.Fatalf("%s: Dist(%d, %d) = %d, want %d", name, at, dst, got, want)
			}
			same("AllOutputs", at, dst, tab.AllOutputs(at, dst), ref.allOutputs(at, dst))
			same("AllOutputsPreferProductive", at, dst, tab.AllOutputsPreferProductive(at, dst), ref.allOutputsPreferProductive(at, dst))
			for _, phase := range []bool{false, true} {
				what := fmt.Sprintf("phase %v", phase)
				same("adaptive "+what, at, dst, tab.Candidates(AdaptiveMinimal, at, dst, phase), ref.adaptive(at, dst))
				same("xy "+what, at, dst, tab.Candidates(XY, at, dst, phase), ref.xy(at, dst))
				same("updown "+what, at, dst, tab.Candidates(UpDown, at, dst, phase), ref.upDown(at, dst, phase))
			}
		}
	}
	for from := 0; from < n; from++ {
		for _, to := range ref.g.Neighbors(from) {
			if tab.IsUp(from, to) != ref.isUp(from, to) {
				t.Fatalf("%s: IsUp(%d, %d) disagrees with the reference", name, from, to)
			}
		}
	}
}

func TestCandidateOrderOracleMeshes(t *testing.T) {
	for _, wh := range [][2]int{{1, 1}, {2, 1}, {3, 3}, {4, 4}, {5, 3}, {8, 8}} {
		m := topology.MustMesh(wh[0], wh[1])
		for _, root := range []int{0, m.N() / 2, m.N() - 1} {
			tab, err := NewTableWithRoot(m.Graph, m, root)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("clean %dx%d root %d", wh[0], wh[1], root)
			checkAgainstRef(t, name, tab, newRefTable(t, m.Graph, m, root, nil))
		}
	}
}

func TestCandidateOrderOracleFaultyMeshes(t *testing.T) {
	rng := testRNG(0x0dac1e)
	for _, tc := range []struct{ w, h, faults int }{{4, 4, 3}, {6, 5, 6}, {8, 8, 4}, {8, 8, 12}, {12, 12, 20}} {
		m := topology.MustMesh(tc.w, tc.h)
		g, err := topology.RemoveRandomLinks(m.Graph, tc.faults, rng)
		if err != nil {
			t.Fatal(err)
		}
		root := rng.IntN(g.N())
		// The mesh is passed along so XY answers come from the faulty
		// graph: hops over a removed link must yield no candidate.
		tab, err := NewTableWithRoot(g, m, root)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("faulty %dx%d/%d root %d", tc.w, tc.h, tc.faults, root)
		checkAgainstRef(t, name, tab, newRefTable(t, g, m, root, nil))
	}
}

func TestCandidateOrderOracleHighRadix(t *testing.T) {
	rng := testRNG(0x4adc)
	maxDeg := 0
	// Dense random graphs: radices above 8 need wider masks than a byte,
	// and the near-complete 80-router graph takes radices past 64, so a
	// port mask spans more than one machine word.
	for _, tc := range []struct{ n, extra int }{{12, 30}, {20, 60}, {22, 120}, {80, 3000}} {
		for trial := 0; trial < 3; trial++ {
			g, err := topology.NewRandomConnected(tc.n, tc.extra, rng)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < g.N(); r++ {
				maxDeg = max(maxDeg, g.Degree(r))
			}
			root := rng.IntN(g.N())
			tab, err := NewTableWithRoot(g, nil, root)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("random n=%d extra=%d trial %d", tc.n, tc.extra, trial)
			checkAgainstRef(t, name, tab, newRefTable(t, g, nil, root, nil))
		}
	}
	if maxDeg <= 64 {
		t.Fatalf("largest radix exercised is %d; the oracle needs one above 64", maxDeg)
	}
}

// TestCandidateOrderOracleRemapped replays random fail/restore plans on a
// full mesh and checks each remapped table: candidates are computed over
// the active subgraph but name links in the full graph's ID space.
func TestCandidateOrderOracleRemapped(t *testing.T) {
	full := topology.MustMesh(6, 6).Graph
	for plan := uint64(0); plan < 4; plan++ {
		rng := testRNG(0xfa11 + plan)
		active := full
		var failed []topology.Edge
		for step := 0; step < 8; step++ {
			var err error
			if len(failed) > 0 && rng.IntN(3) == 0 {
				i := rng.IntN(len(failed))
				e := failed[i]
				failed = append(failed[:i], failed[i+1:]...)
				active, err = active.WithEdge(e.A, e.B)
			} else {
				removable := topology.RemovableEdges(active)
				e := removable[rng.IntN(len(removable))]
				failed = append(failed, e)
				active, err = active.WithoutEdge(e.A, e.B)
			}
			if err != nil {
				t.Fatal(err)
			}
			root := rng.IntN(full.N())
			tab, err := NewTableRemapped(active, full, root)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("plan %d step %d (%d failed) root %d", plan, step, len(failed), root)
			checkAgainstRef(t, name, tab, newRefTable(t, active, nil, root, full))
		}
	}
}

func TestNewTableRemappedRejectsForeignLinks(t *testing.T) {
	full := topology.MustMesh(3, 3).Graph
	foreign := topology.MustNew(9, append(append([]topology.Edge(nil), full.Edges()...), topology.Edge{A: 0, B: 8}))
	if _, err := NewTableRemapped(foreign, full, 0); err == nil {
		t.Error("a link absent from the full graph was accepted")
	}
	if _, err := NewTableRemapped(topology.MustMesh(2, 2).Graph, full, 0); err == nil {
		t.Error("a router-count mismatch was accepted")
	}
}
