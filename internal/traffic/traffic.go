// Package traffic provides the synthetic traffic patterns and open-loop
// injection processes used by the paper's synthetic evaluations
// (uniform random and transpose in Figs. 10, 11 and 14, plus the usual
// complements for wider coverage).
package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"

	"drain/internal/noc"
)

// Pattern maps a source node to a destination node.
type Pattern interface {
	// Dest returns the destination for a packet from src; it may consult
	// rng for randomized patterns. Implementations must never return src
	// unless no other node exists.
	Dest(src int, rng *rand.Rand) int
	Name() string
}

// UniformRandom sends each packet to a uniformly random other node.
type UniformRandom struct{ N int }

// Dest implements Pattern.
func (u UniformRandom) Dest(src int, rng *rand.Rand) int {
	if u.N <= 1 {
		return src
	}
	d := rng.IntN(u.N - 1)
	if d >= src {
		d++
	}
	return d
}

// Name implements Pattern.
func (u UniformRandom) Name() string { return "uniform_random" }

// Transpose sends (x,y) to (y,x) on a W×W mesh numbering.
type Transpose struct{ W int }

// Dest implements Pattern.
func (t Transpose) Dest(src int, _ *rand.Rand) int {
	x, y := src%t.W, src/t.W
	return x*t.W + y
}

// Name implements Pattern.
func (t Transpose) Name() string { return "transpose" }

// BitComplement sends node i to node (N-1-i).
type BitComplement struct{ N int }

// Dest implements Pattern.
func (b BitComplement) Dest(src int, _ *rand.Rand) int { return b.N - 1 - src }

// Name implements Pattern.
func (b BitComplement) Name() string { return "bit_complement" }

// Shuffle sends node i to node obtained by rotating its bits left by one
// (i must index a power-of-two network).
type Shuffle struct{ Bits int }

// Dest implements Pattern.
func (s Shuffle) Dest(src int, _ *rand.Rand) int {
	mask := (1 << s.Bits) - 1
	return ((src << 1) | (src >> (s.Bits - 1))) & mask
}

// Name implements Pattern.
func (s Shuffle) Name() string { return "shuffle" }

// Hotspot sends a fraction of traffic to a fixed hot node and the rest
// uniformly.
type Hotspot struct {
	N        int
	Hot      int
	Fraction float64 // probability a packet targets Hot
}

// Dest implements Pattern.
func (h Hotspot) Dest(src int, rng *rand.Rand) int {
	if rng.Float64() < h.Fraction && h.Hot != src {
		return h.Hot
	}
	return UniformRandom{N: h.N}.Dest(src, rng)
}

// Name implements Pattern.
func (h Hotspot) Name() string { return "hotspot" }

// Tornado sends each node halfway around its row on a W-wide mesh
// (adversarial for minimal routing on meshes).
type Tornado struct{ W int }

// Dest implements Pattern.
func (t Tornado) Dest(src int, _ *rand.Rand) int {
	x, y := src%t.W, src/t.W
	return y*t.W + (x+t.W/2)%t.W
}

// Name implements Pattern.
func (t Tornado) Name() string { return "tornado" }

// Neighbor sends each node to its +1 ring neighbor (best-case locality).
type Neighbor struct{ N int }

// Dest implements Pattern.
func (nb Neighbor) Dest(src int, _ *rand.Rand) int { return (src + 1) % nb.N }

// Name implements Pattern.
func (nb Neighbor) Name() string { return "neighbor" }

// ByName constructs a pattern for an n-node network (w is the mesh width
// for transpose and tornado). Known names: uniform, transpose, bitcomp,
// shuffle, hotspot, tornado, neighbor.
func ByName(name string, n, w int) (Pattern, error) {
	switch name {
	case "uniform", "uniform_random":
		return UniformRandom{N: n}, nil
	case "transpose":
		if w*w != n {
			return nil, fmt.Errorf("traffic: transpose needs a square mesh, have n=%d w=%d", n, w)
		}
		return Transpose{W: w}, nil
	case "bitcomp", "bit_complement":
		return BitComplement{N: n}, nil
	case "shuffle":
		bits := 0
		for 1<<bits < n {
			bits++
		}
		if 1<<bits != n {
			return nil, fmt.Errorf("traffic: shuffle needs power-of-two nodes, have %d", n)
		}
		return Shuffle{Bits: bits}, nil
	case "hotspot":
		return Hotspot{N: n, Hot: n / 2, Fraction: 0.2}, nil
	case "tornado":
		if w <= 0 || n%w != 0 {
			return nil, fmt.Errorf("traffic: tornado needs a mesh width dividing n, have n=%d w=%d", n, w)
		}
		return Tornado{W: w}, nil
	case "neighbor":
		return Neighbor{N: n}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// Generator drives open-loop Bernoulli injection into a network: each
// node independently creates a packet with probability Rate each cycle.
type Generator struct {
	Pattern Pattern
	// Rate is offered load in packets/node/cycle.
	Rate float64
	// CtrlFraction of packets are 1-flit control packets; the rest are
	// DataFlits-sized (mirrors a coherence mix on the synthetic runs).
	CtrlFraction float64
	DataFlits    int
	// Class assigned to generated packets.
	Class int
	// InjQueueCap skips injection at nodes whose queue is backed up
	// beyond this depth (keeps open-loop offered load well-defined
	// instead of accumulating unbounded queues). 0 disables the bound.
	InjQueueCap int

	rng *rand.Rand
	// src is the concrete PCG behind rng: the per-node rate draws call it
	// directly, skipping rng's Source interface dispatch while consuming
	// the identical stream (rng.Uint64() == src.Uint64(), same object).
	src *rand.PCG

	// rateThresh caches Rate as an integer threshold on the raw 53-bit
	// draw: u&mask53 < rateThresh is exactly rng.Float64() < Rate (see
	// refreshThresh). rateCached detects Rate being reassigned.
	rateThresh uint64
	rateCached float64

	// pendingSrc/hasPending memoize a mid-cycle stop inside SkipQuiet:
	// the node whose rate draw passed, whose injection draws have not
	// happened yet. The next Tick resumes from exactly that point, so
	// the RNG sequence matches a generator ticked every cycle.
	pendingSrc int
	hasPending bool

	// Created counts generation attempts that were actually injected.
	Created int64
	// Skipped counts injections suppressed by a full queue.
	Skipped int64
}

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(p Pattern, rate float64, seed uint64) *Generator {
	src := rand.NewPCG(seed, seed^0xa5a5a5a55a5a5a5a)
	return &Generator{
		Pattern:      p,
		Rate:         rate,
		CtrlFraction: 0.5,
		DataFlits:    5,
		InjQueueCap:  8,
		rng:          rand.New(src),
		src:          src,
	}
}

// RNGMode names a generator draw discipline; RNGExact is its only value.
//
// Deprecated: kept only for NewGeneratorMode and sim.SyntheticResult.
type RNGMode int

// RNGExact is the sequential draw discipline every generator uses.
//
// Deprecated: kept only for NewGeneratorMode and sim.SyntheticResult.
const RNGExact RNGMode = 0

// NewGeneratorMode returns NewGenerator(p, rate, seed); mode and nodes
// are ignored.
//
// Deprecated: use NewGenerator.
func NewGeneratorMode(p Pattern, rate float64, seed uint64, mode RNGMode, nodes int) *Generator {
	return NewGenerator(p, rate, seed)
}

// mask53 extracts the 53 bits rand/v2's Float64 keeps of each Uint64
// draw: Float64() == float64(u<<11>>11) / (1<<53).
const mask53 = 1<<53 - 1

// refreshThresh recomputes the integer rate threshold. The per-node rate
// draw `rng.Float64() < Rate` is, by rand/v2's construction, exactly
// `float64(u&mask53)/2^53 < Rate` for one Uint64 draw u. Both sides are
// exact binary rationals (x := u&mask53 < 2^53 converts exactly, dividing
// by 2^53 only shifts the exponent, and Rate*2^53 likewise just shifts
// Rate's exponent), so the comparison equals the real-number comparison
// x < Rate*2^53, i.e. x < ceil(Rate*2^53). Comparing the raw draw against
// that integer threshold therefore consumes the identical RNG stream and
// fires on exactly the same cycles, while skipping the float conversion
// in the all-nodes-quiet common case.
func (g *Generator) refreshThresh() {
	t := g.Rate * (1 << 53)
	switch {
	case t <= 0:
		g.rateThresh = 0
	case t >= 1<<53:
		g.rateThresh = 1 << 53 // every draw fires
	default:
		g.rateThresh = uint64(math.Ceil(t))
	}
	g.rateCached = g.Rate
}

// Tick injects this cycle's packets into the network. If the previous
// call was a SkipQuiet that stopped mid-cycle, Tick first completes that
// cycle's pending injection and continues from the following node, so
// the draw sequence is exactly that of a generator ticked every cycle.
func (g *Generator) Tick(n *noc.Network) {
	if g.Rate != g.rateCached {
		g.refreshThresh()
	}
	nodes := n.Graph().N()
	src := 0
	if g.hasPending {
		g.hasPending = false
		g.emit(n, g.pendingSrc)
		src = g.pendingSrc + 1
	}
	for ; src < nodes; src++ {
		if g.src.Uint64()&mask53 >= g.rateThresh {
			continue
		}
		g.emit(n, src)
	}
}

// emit performs the injection-side draws and effects for a node whose
// rate draw passed (the draw/effect order here is load-bearing for
// determinism: queue-cap check, destination draw, self-test, size draw,
// inject).
func (g *Generator) emit(n *noc.Network, src int) {
	if g.InjQueueCap > 0 && n.InjQueueLen(src, g.Class) >= g.InjQueueCap {
		g.Skipped++
		return
	}
	dst := g.Pattern.Dest(src, g.rng)
	if dst == src {
		return
	}
	flits := 1
	if g.rng.Float64() >= g.CtrlFraction {
		flits = g.DataFlits
	}
	p := n.NewPacket(src, dst, g.Class, flits)
	if n.Inject(p) {
		g.Created++
	} else {
		// A refused injection leaves ownership with us (the queue never
		// saw the packet), so hand it straight back to the pool.
		g.Skipped++
		n.ReleasePacket(p)
	}
}

// SkipQuiet fast-forwards the generator over up to max cycles in which
// no node injects, drawing exactly the per-cycle rate draws a ticked
// generator would have drawn. It returns the number of fully quiet
// cycles k (0 ≤ k ≤ max): the caller may skip k network cycles; if
// k < max, cycle k is not quiet and the caller must resume per-cycle
// stepping there — the next Tick finishes that cycle's draws from the
// memoized stop point. Callers use this during provably idle windows
// (see noc.Network.NextWorkCycle); a generator with a pending injection
// never skips.
//
//drain:hotpath idle fast-forward companion to Network.SkipIdle
func (g *Generator) SkipQuiet(nodes int, max int64) int64 {
	if g.hasPending || max <= 0 {
		return 0
	}
	if g.Rate != g.rateCached {
		g.refreshThresh()
	}
	for k := int64(0); k < max; k++ {
		for src := 0; src < nodes; src++ {
			if g.src.Uint64()&mask53 < g.rateThresh {
				g.pendingSrc = src
				g.hasPending = true
				return k
			}
		}
	}
	return max
}
