package main

import (
	"slices"
	"testing"
	"time"
)

func TestScheduleIsSeededSortedAndBounded(t *testing.T) {
	span := 2 * time.Second
	a := schedule(7, 500, 96, span)
	if !slices.Equal(a, schedule(7, 500, 96, span)) {
		t.Fatal("same seed gave a different schedule")
	}
	if slices.Equal(a, schedule(8, 500, 96, span)) {
		t.Fatal("different seeds gave the same schedule")
	}
	counts := make([]int, 96)
	firsts := 0
	for i, x := range a {
		if x.due < 0 || x.due >= span || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due %v: not sorted within [0, %v)", i, x.due, span)
		}
		if counts[x.key] == 0 {
			firsts++
			// First occurrences are spread evenly: the k-th comes at
			// request (k-1)*n/size.
			if want := (firsts - 1) * 500 / 96; i != want {
				t.Errorf("entry %d first requested at %d, want %d", x.key, i, want)
			}
		}
		counts[x.key]++
	}
	if firsts != 96 {
		t.Errorf("%d of 96 entries requested", firsts)
	}
	// Zipf popularity: the most popular entry gets far more than a
	// uniform share (500/96 ≈ 5).
	if top := slices.Max(counts); top < 40 {
		t.Errorf("most popular entry drew %d of 500; popularity is not skewed", top)
	}
}

// TestOpenLoopTimesFromDueTime stalls a single connection: requests due
// every millisecond, each taking 20ms. An open loop keeps the schedule,
// so request i is sent about 20i ms into the run, i ms after it was due
// late by ~19i ms, and its latency counts that wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, stall = 5, 20 * time.Millisecond
	sched := make([]arrival, n)
	for i := range sched {
		sched[i].due = time.Duration(i) * time.Millisecond
	}
	got := openLoop(sched, 1, func(int) { time.Sleep(stall) })
	for i, s := range got {
		// Sleeps only overrun, so these are lower bounds.
		minLate := time.Duration(i)*stall - sched[i].due
		if s.late < minLate {
			t.Errorf("request %d: late %v, want >= %v", i, s.late, minLate)
		}
		if s.service < stall {
			t.Errorf("request %d: service %v, want >= %v", i, s.service, stall)
		}
		if s.latency != s.late+s.service {
			t.Errorf("request %d: latency %v != late %v + service %v", i, s.latency, s.late, s.service)
		}
	}
	// With enough connections nobody waits on another request.
	got = openLoop(sched, n, func(int) { time.Sleep(stall) })
	for i, s := range got {
		if s.late > stall/2 {
			t.Errorf("request %d with %d connections: late %v", i, n, s.late)
		}
	}
}
