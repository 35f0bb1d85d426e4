package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: drain
cpu: some cpu
BenchmarkStep/LowLoad/event-8         	     100	    527816 ns/op	      2074 ns/cycle	    482210 cycles/sec	       0 B/op	       0 allocs/op
BenchmarkStep/LowLoad/dense-8         	      60	    903210 ns/op	      3515 ns/cycle	    284500 cycles/sec	       0 B/op	       0 allocs/op
BenchmarkStep/Saturation/event-8      	      12	  48100000 ns/op	      9620 ns/cycle	    103950 cycles/sec	       0 B/op	       0 allocs/op
BenchmarkStep/Saturation/dense-8      	      12	  46500000 ns/op	      9300 ns/cycle	    107527 cycles/sec	       0 B/op	       0 allocs/op
BenchmarkParallelSweep-8              	       5	 250000000 ns/op
PASS
ok  	drain	10.2s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkStep/LowLoad/event" || b.Iterations != 100 {
		t.Fatalf("first benchmark = %+v", b)
	}
	for unit, want := range map[string]float64{
		"ns/op": 527816, "ns/cycle": 2074, "cycles/sec": 482210, "B/op": 0, "allocs/op": 0,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("metric %q = %v, want %v", unit, got, want)
		}
	}
	if got := doc.Benchmarks[4].Name; got != "BenchmarkParallelSweep" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", got)
	}
	if len(doc.EventVsDense) != 2 {
		t.Fatalf("comparisons = %v, want 2 load points", doc.EventVsDense)
	}
	low := doc.EventVsDense["BenchmarkStep/LowLoad"]
	if low.DenseNsPerCycle != 3515 || low.EventNsPerCycle != 2074 {
		t.Fatalf("LowLoad comparison = %+v", low)
	}
	if low.Speedup < 1.69 || low.Speedup > 1.70 {
		t.Errorf("LowLoad speedup = %v, want 3515/2074", low.Speedup)
	}
	sat := doc.EventVsDense["BenchmarkStep/Saturation"]
	if sat.Speedup >= 1 {
		// The sample encodes a slight saturation regression; the ratio
		// must reflect it rather than clamp.
		t.Errorf("Saturation speedup = %v, want <1", sat.Speedup)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	doc, err := parse(strings.NewReader("hello\nBenchmarkX notanumber 5 ns/op\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 || doc.EventVsDense != nil {
		t.Fatalf("garbage parsed into %+v", doc)
	}
}

// entries decodes a merged document's raw history.
func entries(t *testing.T, doc *Output) []Entry {
	t.Helper()
	out := make([]Entry, len(doc.History))
	for i, raw := range doc.History {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatalf("history[%d]: %v", i, err)
		}
	}
	return out
}

// merge must append new SHAs, replace re-runs of the same SHA in
// place, and fold a pre-history document (bare entry at top level)
// into history[0].
func TestMergeHistory(t *testing.T) {
	e1 := Entry{SHA: "aaa", Date: "2026-08-01", Benchmarks: []Benchmark{{Name: "B1", Iterations: 1}}}
	doc, err := merge(nil, e1)
	if err != nil {
		t.Fatal(err)
	}
	if h := entries(t, doc); len(h) != 1 || h[0].SHA != "aaa" {
		t.Fatalf("fresh merge = %+v", h)
	}

	prev, _ := json.Marshal(doc)
	e2 := Entry{SHA: "bbb", Date: "2026-08-07", Benchmarks: []Benchmark{{Name: "B2", Iterations: 2}}}
	doc, err = merge(prev, e2)
	if err != nil {
		t.Fatal(err)
	}
	if h := entries(t, doc); len(h) != 2 || h[0].SHA != "aaa" || h[1].SHA != "bbb" {
		t.Fatalf("append merge = %+v", h)
	}

	prev, _ = json.Marshal(doc)
	e2b := Entry{SHA: "bbb", Date: "2026-08-08", Benchmarks: []Benchmark{{Name: "B2", Iterations: 3}}}
	doc, err = merge(prev, e2b)
	if err != nil {
		t.Fatal(err)
	}
	if h := entries(t, doc); len(h) != 2 || h[1].Date != "2026-08-08" || h[1].Benchmarks[0].Iterations != 3 {
		t.Fatalf("same-SHA merge did not replace: %+v", h)
	}
}

func TestMergeFoldsLegacyDocument(t *testing.T) {
	legacy := `{"benchmarks":[{"name":"BenchmarkStep/LowLoad/event","iterations":100,"metrics":{"ns/cycle":2074}}],"notes":["old run"]}`
	doc, err := merge([]byte(legacy), Entry{SHA: "ccc", Benchmarks: []Benchmark{{Name: "B3"}}})
	if err != nil {
		t.Fatal(err)
	}
	h := entries(t, doc)
	if len(h) != 2 {
		t.Fatalf("history = %+v, want legacy + new", h)
	}
	if h[0].SHA != "" || len(h[0].Benchmarks) != 1 || h[0].Notes[0] != "old run" {
		t.Fatalf("legacy fold = %+v", h[0])
	}
	if h[1].SHA != "ccc" {
		t.Fatalf("new entry = %+v", h[1])
	}
}

// merge must pair the busy-cycle load points of the incoming entry
// against the most recent entry of a different SHA — including when the
// incoming entry replaces its own earlier run.
func TestMergeComputesBusyCycle(t *testing.T) {
	mk := func(sha string, ns, allocs, bytes float64) Entry {
		return Entry{SHA: sha, Benchmarks: []Benchmark{{
			Name:       "BenchmarkStep/MidLoad/event",
			Iterations: 100,
			Metrics:    map[string]float64{"ns/cycle": ns, "allocs/op": allocs, "B/op": bytes},
		}}}
	}
	doc, err := merge(nil, mk("aaa", 13000, 32000, 4.0e6))
	if err != nil {
		t.Fatal(err)
	}
	if bc := entries(t, doc)[0].BusyCycle; bc != nil {
		t.Fatalf("first entry has nothing to compare against: %+v", bc)
	}
	prev, _ := json.Marshal(doc)
	doc, err = merge(prev, mk("bbb", 6500, 3200, 1.0e6))
	if err != nil {
		t.Fatal(err)
	}
	second := entries(t, doc)[1]
	bc, ok := second.BusyCycle["BenchmarkStep/MidLoad/event"]
	if !ok {
		t.Fatalf("busy_cycle missing: %+v", second)
	}
	if bc.Unit != "ns/cycle" || bc.PrevNs != 13000 || bc.Ns != 6500 || bc.Speedup != 2 {
		t.Errorf("time pairing = %+v", bc)
	}
	if bc.PrevAllocs != 32000 || bc.Allocs != 3200 || bc.AllocsRatio != 10 {
		t.Errorf("alloc pairing = %+v", bc)
	}
	// Re-benching bbb must still pair against aaa, not against itself.
	prev, _ = json.Marshal(doc)
	doc, err = merge(prev, mk("bbb", 13000, 32000, 4.0e6))
	if err != nil {
		t.Fatal(err)
	}
	if bc := entries(t, doc)[1].BusyCycle["BenchmarkStep/MidLoad/event"]; bc.Speedup != 1 || bc.PrevNs != 13000 {
		t.Errorf("same-SHA re-merge pairing = %+v", bc)
	}
}

// Merging into the committed BENCH_noc.json must leave every prior
// entry byte for byte as it was, including sections this version no
// longer derives (the recorded fast_vs_exact and parallel_scaling
// comparisons).
func TestMergeKeepsCommittedHistory(t *testing.T) {
	prev, err := os.ReadFile("../../BENCH_noc.json")
	if err != nil {
		t.Fatal(err)
	}
	var before Output
	if err := json.Unmarshal(prev, &before); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{`"fast_vs_exact"`, `"parallel_scaling"`} {
		if !bytes.Contains(prev, []byte(section)) {
			t.Fatalf("committed history lost its %s sections", section)
		}
	}
	entry, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	entry.SHA = "new"
	doc, err := merge(prev, *entry)
	if err != nil {
		t.Fatal(err)
	}
	// Encode exactly as main does, then read the document back.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	var after Output
	if err := json.Unmarshal(buf.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if len(after.History) != len(before.History)+1 {
		t.Fatalf("history has %d entries, want %d", len(after.History), len(before.History)+1)
	}
	for i, raw := range before.History {
		if !bytes.Equal(after.History[i], raw) {
			t.Errorf("history[%d] changed:\n%s\nwant\n%s", i, after.History[i], raw)
		}
	}
	if last := entries(t, &after)[len(after.History)-1]; last.SHA != "new" || last.BusyCycle == nil {
		t.Errorf("new entry = %+v, want sha new with a busy_cycle pairing", last)
	}
}

func TestMergeRejectsCorruptPrev(t *testing.T) {
	if _, err := merge([]byte("{not json"), Entry{}); err == nil {
		t.Fatal("corrupt previous file accepted")
	}
}

// allocSample is `go test -benchmem` output as the CI alloc step sees it.
const allocSample = `goos: linux
goarch: amd64
BenchmarkStep/MidLoad/event-8         	      10	  52269863 ns/op	     95657 cycles/sec	     10454 ns/cycle	 1161164 B/op	      34 allocs/op
BenchmarkStep/MidLoad/dense-8         	      10	  49759290 ns/op	    100484 cycles/sec	      9952 ns/cycle	 1161062 B/op	      36 allocs/op
BenchmarkStepAllocs-8                 	       1	 103049153 ns/op	         0 allocs/cycle
PASS
`

// TestBudget pins the allocation gate: every budgeted benchmark must be
// present (names match after the -GOMAXPROCS suffix is stripped) and
// within its ceiling, every violation is reported in name order, and a
// budget file that defines nothing is itself an error.
func TestBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		budget  string
		wantErr []string // substrings of the error, in order; nil means pass
		wantOut string   // substring of the report on success
	}{
		{
			name:    "within budget passes",
			budget:  `{"budgets":{"BenchmarkStep/MidLoad/event":120,"BenchmarkStep/MidLoad/dense":120}}`,
			wantOut: "BenchmarkStep/MidLoad/event: 34 allocs/op within budget 120",
		},
		{
			name:    "exceeded budget fails",
			budget:  `{"budgets":{"BenchmarkStep/MidLoad/event":30,"BenchmarkStep/MidLoad/dense":30}}`,
			wantErr: []string{"dense: 36 allocs/op exceeds budget 30", "event: 34 allocs/op exceeds budget 30"},
		},
		{
			name:    "missing benchmark fails",
			budget:  `{"budgets":{"BenchmarkStep/Saturation/event":150}}`,
			wantErr: []string{"BenchmarkStep/Saturation/event: budgeted benchmark missing from input"},
		},
		{
			name:    "no allocs column counts as missing",
			budget:  `{"budgets":{"BenchmarkStepAllocs":1}}`,
			wantErr: []string{"BenchmarkStepAllocs: budgeted benchmark missing from input"},
		},
		{
			name:    "empty budget rejected",
			budget:  `{}`,
			wantErr: []string{"defines no budgets"},
		},
		{
			name:    "corrupt budget rejected",
			budget:  `not json`,
			wantErr: []string{"budget file"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := parse(strings.NewReader(allocSample))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			err = checkBudget([]byte(tc.budget), e, &out)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("gate failed: %v", err)
				}
				if !strings.Contains(out.String(), tc.wantOut) {
					t.Errorf("report %q lacks %q", out.String(), tc.wantOut)
				}
				return
			}
			if err == nil {
				t.Fatal("gate passed")
			}
			msg, at := err.Error(), 0
			for _, want := range tc.wantErr {
				i := strings.Index(msg[at:], want)
				if i < 0 {
					t.Fatalf("error %q lacks %q (in order)", msg, want)
				}
				at += i + len(want)
			}
		})
	}
}
