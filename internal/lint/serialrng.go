package lint

// runSerialRNG proves the property the sharded engine's byte-identity
// rests on: no RNG draw is reachable from a parallel-phase function.
// Every randomized decision — arbitration draws via the network's
// seeded *rand.Rand, the traffic generator's PCG stream — must execute
// on the stepping goroutine in the serial commit order, or the draw
// sequence (and with it every downstream byte) would depend on shard
// count and phase interleaving.
//
// The walk is the same static-call BFS the other effect analyzers use,
// from the configured ParallelPhaseRoots plus //drain:parallelphase
// functions. A call whose static callee lives in an RNG package
// (math/rand, math/rand/v2, crypto/rand — free functions and methods on
// their types, including rand.Source interface methods) is a finding,
// as is a call matching Config.RNGDrawFuncs, the repo's own draw
// primitives (the generator's emit).
// There is deliberately no suppression directive: a draw inside a
// parallel phase is never sound, so the only fix is moving the draw to
// a serial phase or removing the root.
func runSerialRNG(c *Config, pkgs []*Package) []Finding {
	idx := buildFuncIndex(pkgs)
	roots := idx.rootsOf(c.ParallelPhaseRoots, dirParallelphase)
	if len(roots) == 0 {
		return nil
	}
	rngPkgs := map[string]bool{
		"math/rand":    true,
		"math/rand/v2": true,
		"crypto/rand":  true,
	}
	var out []Finding
	for _, fn := range idx.reachable(roots, nil) {
		d := idx[fn]
		if !d.pkg.Target {
			continue
		}
		name := fn.Name()
		for _, f := range callSites(d) {
			callee := f.callee
			if callee.Pkg() != nil && rngPkgs[callee.Pkg().Path()] {
				out = append(out, d.pkg.finding("serialrng", f.node,
					"%s is parallel-phase reachable: %s.%s draws randomness (draws must stay on the serial commit path to keep the sequence shard-count independent)",
					name, callee.Pkg().Name(), callee.Name()))
				continue
			}
			for _, spec := range c.RNGDrawFuncs {
				if matchesRoot(origin(callee), spec) {
					out = append(out, d.pkg.finding("serialrng", f.node,
						"%s is parallel-phase reachable: %s is a declared RNG draw primitive (draws must stay on the serial commit path)",
						name, callee.Name()))
					break
				}
			}
		}
	}
	return out
}
