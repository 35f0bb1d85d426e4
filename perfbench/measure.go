package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to be more than one outlier.
const minBeyond = 10

// tailPerMille lists the tail percentiles a latency report may use,
// highest first, in per-mille so the rank arithmetic stays exact.
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// tailRank returns the highest percentile (per-mille) of n samples
// that leaves at least minBeyond samples above it. With fewer than
// 2*minBeyond samples no percentile qualifies and it returns 1000: the
// report is then the slowest sample, and says so.
func tailRank(n int) int {
	for _, q := range tailPerMille {
		if n-nearestRank(q, n) >= minBeyond {
			return q
		}
	}
	return 1000
}

// nearestRank is the 1-based rank of the q-per-mille percentile of n
// samples: ceil(q*n/1000).
func nearestRank(q, n int) int {
	return max(1, (q*n+999)/1000)
}

// percentile returns the nearest-rank q-per-mille percentile of xs.
func percentile(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[nearestRank(q, len(s))-1]
}

// tail reports the tail percentile of xs chosen by tailRank, with a
// label naming which percentile it is.
func tail(xs []float64) (value float64, label string) {
	q := tailRank(len(xs))
	if q == 1000 {
		return percentile(xs, q), fmt.Sprintf("max of %d", len(xs))
	}
	return percentile(xs, q), fmt.Sprintf("p%g of %d", float64(q)/10, len(xs))
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms and secs convert durations to the units the report uses.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// tally counts attempted and failed operations (figures, rate points,
// HTTP requests, equivalence checks). Every failure keeps a reason so
// the run log says what went wrong.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) pass() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
}

// check counts one operation, failed when err is non-nil.
func (t *tally) check(what string, err error) {
	if err != nil {
		t.fail("%s: %v", what, err)
		return
	}
	t.pass()
}

// failedFrac is failed ÷ attempted (0 before anything was attempted).
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// tookLine matches the wall-clock trailer cmd/experiments appends to
// every figure, e.g. "_(scale=quick, seed=1, took 1.42s)_".
var tookLine = regexp.MustCompile(`(?m)^_\(scale=[a-z]+, seed=\d+, took [^)]*\)_\n?`)

// stripTook removes the took trailer, the only non-deterministic line of
// a committed results/<fig>.md, and the blank lines before it.
func stripTook(s string) string {
	s = tookLine.ReplaceAllString(s, "")
	for len(s) > 0 && s[len(s)-1] == '\n' {
		s = s[:len(s)-1]
	}
	return s + "\n"
}
