package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled request: when it is due (from the start of
// the schedule) and which universe entry it asks for.
type arrival struct {
	due time.Duration
	key int
}

// zipfS is the popularity skew of the request universe: the entry
// introduced k-th has weight 1/k^zipfS, so early entries take most
// repeats (cache hits).
const zipfS = 1.1

// schedule draws n open-loop arrivals over span: a Poisson process
// conditioned on n arrivals, i.e. n sorted uniform due times, so every
// seed's schedule ends at about the same time. The size universe
// entries are introduced in a seed-drawn order at evenly spaced
// requests, so first occurrences (cache misses) arrive at a steady rate
// all run long instead of bunching at the start; every other request
// repeats an entry already introduced, chosen by popularity.
func schedule(seed uint64, n, size int, span time.Duration) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x10ad))
	order := rng.Perm(size)
	cum := make([]float64, size) // cum[k]: total weight of the first k+1 entries
	total := 0.0
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), zipfS)
		cum[k] = total
	}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(span))
	}
	slices.Sort(due)
	out := make([]arrival, n)
	introduced := 0
	for i := range out {
		k := introduced
		if introduced == size || i < introduced*n/size {
			// A repeat: popularity-weighted over the entries so far.
			k, _ = slices.BinarySearch(cum[:introduced], rng.Float64()*cum[introduced-1])
			k = min(k, introduced-1)
		} else {
			introduced++
		}
		out[i] = arrival{due: due[i], key: order[k]}
	}
	return out
}

// sent is the outcome of one scheduled request as the generator saw it.
type sent struct {
	late    time.Duration // send time minus due time: how late the generator ran
	latency time.Duration // completion minus due time
	service time.Duration // completion minus send time
}

// openLoop sends every arrival at its due time over conns concurrent
// senders, whatever the earlier requests are doing, and times each from
// its due time: a stall that delays later sends shows in their latency
// and lateness. do performs request i. It returns when all have ended.
func openLoop(sched []arrival, conns int, do func(i int)) []sent {
	out := make([]sent, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				time.Sleep(time.Until(due))
				begin := time.Now()
				do(i)
				end := time.Now()
				out[i] = sent{late: begin.Sub(due), latency: end.Sub(due), service: end.Sub(begin)}
			}
		}()
	}
	wg.Wait()
	return out
}
