package main

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{10000, 999}, {1000, 990}, {999, 950}, {200, 950}, {199, 900},
		{100, 900}, {40, 750}, {20, 500}, {19, 1000}, {3, 1000}, {1, 1000},
	} {
		got := tailRank(tc.n)
		if got != tc.want {
			t.Errorf("tailRank(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if got < 1000 && tc.n-nearestRank(got, tc.n) < minBeyond {
			t.Errorf("tailRank(%d) = %d leaves fewer than %d samples beyond it", tc.n, got, minBeyond)
		}
	}
}

func TestTailReportsP99OrMax(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	if v, label := tail(xs); v != 990 || label != "p99 of 1000" {
		t.Errorf("tail(1..1000) = %v %q, want 990 \"p99 of 1000\"", v, label)
	}
	if v, label := tail([]float64{3, 9, 1}); v != 9 || label != "max of 3" {
		t.Errorf("tail(3 samples) = %v %q, want the maximum", v, label)
	}
	// A failed request counts as +Inf, so failures push the tail up.
	xs[0] = math.Inf(1)
	for i := 1; i <= 10; i++ {
		xs[i] = math.Inf(1)
	}
	if v, _ := tail(xs); !math.IsInf(v, 1) {
		t.Errorf("with 11 failures in 1000 the p99 = %v, want +Inf", v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestStripTook(t *testing.T) {
	body := "## fig14 — Epoch sweep\n\n| a | b |\n|---|---|\n| 1 | 2 |\n\n> note\n\n"
	golden := body + "_(scale=quick, seed=1, took 1.63s)_\n"
	if got, want := stripTook(golden), stripTook(body); got != want {
		t.Errorf("stripTook(golden) = %q, want %q", got, want)
	}
	for _, took := range []string{"0s", "635ms", "1m2.5s"} {
		g := body + "_(scale=full, seed=7, took " + took + ")_\n"
		if strings.Contains(stripTook(g), "took") {
			t.Errorf("took %s survived stripping", took)
		}
	}
	// Only the trailer goes: a table cell that mentions "took" stays.
	cell := "| took | 1 |\n"
	if got := stripTook(cell); got != cell {
		t.Errorf("stripTook changed a table row: %q", got)
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Fatal("empty tally must report 0")
	}
	tl.pass()
	tl.check("ok", nil)
	tl.check("bad", errors.New("boom"))
	tl.fail("request %d: status %d", 7, 429)
	if tl.attempted != 4 || tl.failed != 2 || tl.failedFrac() != 0.5 {
		t.Errorf("tally = %d attempted, %d failed, frac %v; want 4, 2, 0.5", tl.attempted, tl.failed, tl.failedFrac())
	}
	if len(tl.reasons) != 2 || tl.reasons[0] != "bad: boom" || tl.reasons[1] != "request 7: status 429" {
		t.Errorf("reasons = %q", tl.reasons)
	}
}
