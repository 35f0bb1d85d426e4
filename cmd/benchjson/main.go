// Command benchjson converts `go test -bench` output (benchstat-
// compatible text, read from stdin) into a machine-readable JSON
// history. For every benchmark it records the iteration count and each
// reported metric (ns/op, ns/cycle, cycles/sec, B/op, allocs/op, ...);
// for BenchmarkStep's load-point sub-benchmarks it pairs the event- and
// dense-engine variants and computes the event-core speedup at each
// load point.
//
// The output document is an append-only `history` array keyed by git
// SHA + date: if -out already exists, the new entry is appended (or
// replaces an existing entry with the same SHA, so re-running a bench
// at one commit is idempotent) instead of discarding prior runs.
// Pre-history documents (a bare entry at top level) are folded in as
// the first history element. Prior entries are carried over as raw
// JSON, so sections this version no longer derives survive a merge.
// `make bench` pipes through it to produce BENCH_noc.json.
//
// With -budget FILE it is instead the allocation gate: it checks each
// budgeted benchmark's allocs/op against its ceiling in FILE
// (alloc_budget.json) and exits non-zero on any violation, or when a
// budgeted benchmark is missing from the input, so a renamed benchmark
// cannot silently retire its budget. Allocation counts, unlike timings,
// are exact and machine-independent: the runtime counts every heap
// allocation, so the same binary reports the same allocs/op on a loaded
// CI runner and a quiet workstation. That makes them the one hot-path
// regression signal CI can gate on. The ceilings are calibrated at
// -benchtime=10x (fixed iteration counts keep the per-op amortization of
// warm-up allocations stable) with roughly 3x headroom.
//
// Usage:
//
//	go test -bench=... -benchmem . | benchjson -out BENCH_noc.json -sha ... -date ...
//	go test -bench=... -benchmem . | benchjson -budget alloc_budget.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Comparison pairs the two engine variants of one load point.
type Comparison struct {
	DenseNsPerCycle float64 `json:"dense_ns_per_cycle"`
	EventNsPerCycle float64 `json:"event_ns_per_cycle"`
	// Speedup is dense/event wall-clock per simulated cycle: >1 means
	// the event core is faster at this load point.
	Speedup float64 `json:"speedup"`
}

// BusyCyclePoint pairs one hot benchmark's headline metrics in this run
// against the previous recorded run: the busy-cycle cost before and
// after whatever the commit changed. Unlike the same-binary ratio
// (event_vs_dense), this is a cross-binary — possibly
// cross-machine — comparison, so treat the time speedup as indicative
// and the allocation columns (which the runtime counts exactly) as the
// hard numbers.
type BusyCyclePoint struct {
	Unit   string  `json:"unit"` // always ns/cycle
	PrevNs float64 `json:"prev_ns"`
	Ns     float64 `json:"ns"`
	// Speedup is prev/now wall clock: >1 means this run is faster.
	Speedup     float64 `json:"speedup"`
	PrevAllocs  float64 `json:"prev_allocs_per_op"`
	Allocs      float64 `json:"allocs_per_op"`
	AllocsRatio float64 `json:"allocs_ratio"` // prev/now; >1 means fewer allocations now
	PrevBytes   float64 `json:"prev_bytes_per_op"`
	Bytes       float64 `json:"bytes_per_op"`
}

// Entry is one benchmark run, keyed by the commit it measured.
type Entry struct {
	SHA          string                    `json:"sha,omitempty"`
	Date         string                    `json:"date,omitempty"`
	Benchmarks   []Benchmark               `json:"benchmarks"`
	EventVsDense map[string]Comparison     `json:"event_vs_dense,omitempty"`
	BusyCycle    map[string]BusyCyclePoint `json:"busy_cycle,omitempty"`
	Notes        []string                  `json:"notes,omitempty"`
}

// Output is the BENCH_noc.json document: every recorded run, oldest
// first. Entries stay raw JSON, so merge passes prior entries through
// byte for byte and decodes only what it needs.
type Output struct {
	History []json.RawMessage `json:"history"`
}

type noteList []string

func (n *noteList) String() string     { return strings.Join(*n, "; ") }
func (n *noteList) Set(s string) error { *n = append(*n, s); return nil }

func main() {
	var notes noteList
	flag.Var(&notes, "note", "free-text note to embed in the new entry (repeatable)")
	out := flag.String("out", "", "output file (default stdout); an existing history there is kept and appended to")
	sha := flag.String("sha", "", "git commit the run measured (history key)")
	date := flag.String("date", "", "run date, YYYY-MM-DD")
	budget := flag.String("budget", "", "check allocs/op against this budget file (alloc_budget.json) instead of writing JSON")
	flag.Parse()

	entry, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *budget != "" {
		data, err := os.ReadFile(*budget)
		if err == nil {
			err = checkBudget(data, entry, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	entry.SHA = *sha
	entry.Date = *date
	entry.Notes = notes

	var prev []byte
	if *out != "" {
		if data, err := os.ReadFile(*out); err == nil {
			prev = data
		}
	}
	doc, err := merge(prev, *entry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// merge appends entry to the history found in prev (the prior contents
// of the output file; nil or empty means none). A pre-history document
// — a bare entry at top level, as benchjson wrote before the history
// format — becomes the first element. An existing entry with the same
// SHA is replaced in place so re-benching one commit never duplicates.
func merge(prev []byte, entry Entry) (*Output, error) {
	doc := &Output{}
	if len(prev) > 0 {
		if err := json.Unmarshal(prev, doc); err != nil {
			return nil, fmt.Errorf("existing output file: %w", err)
		}
		if doc.History == nil {
			var legacy Entry
			if err := json.Unmarshal(prev, &legacy); err != nil {
				return nil, fmt.Errorf("existing output file: %w", err)
			}
			if legacy.Benchmarks != nil {
				doc.History = []json.RawMessage{prev}
			}
		}
	}
	shas := make([]string, len(doc.History))
	for i, raw := range doc.History {
		var key struct {
			SHA string `json:"sha"`
		}
		if err := json.Unmarshal(raw, &key); err != nil {
			return nil, fmt.Errorf("existing output file: history[%d]: %w", i, err)
		}
		shas[i] = key.SHA
	}
	// Pair the busy-cycle load points against the most recent run of a
	// DIFFERENT commit, so re-benching one commit still compares against
	// its predecessor rather than itself.
	for i := len(shas) - 1; i >= 0; i-- {
		if shas[i] != entry.SHA {
			var p Entry
			if err := json.Unmarshal(doc.History[i], &p); err != nil {
				return nil, fmt.Errorf("existing output file: history[%d]: %w", i, err)
			}
			entry.BusyCycle = compareBusy(&p, &entry)
			break
		}
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		return nil, err
	}
	for i, sha := range shas {
		if entry.SHA != "" && sha == entry.SHA {
			doc.History[i] = raw
			return doc, nil
		}
	}
	doc.History = append(doc.History, raw)
	return doc, nil
}

// busyCycleNames are the load points the busy-cycle comparison tracks:
// the event-engine Step points across the load sweep.
var busyCycleNames = []string{
	"BenchmarkStep/LowLoad/event",
	"BenchmarkStep/MidLoad/event",
	"BenchmarkStep/Saturation/event",
}

// compareBusy pairs cur's busy-cycle load points against prev's.
func compareBusy(prev, cur *Entry) map[string]BusyCyclePoint {
	find := func(e *Entry, name string) *Benchmark {
		for i := range e.Benchmarks {
			if e.Benchmarks[i].Name == name {
				return &e.Benchmarks[i]
			}
		}
		return nil
	}
	out := map[string]BusyCyclePoint{}
	for _, name := range busyCycleNames {
		pb, cb := find(prev, name), find(cur, name)
		if pb == nil || cb == nil {
			continue
		}
		pv, cv := pb.Metrics["ns/cycle"], cb.Metrics["ns/cycle"]
		if pv <= 0 || cv <= 0 {
			continue
		}
		pt := BusyCyclePoint{
			Unit: "ns/cycle", PrevNs: pv, Ns: cv, Speedup: pv / cv,
			PrevAllocs: pb.Metrics["allocs/op"], Allocs: cb.Metrics["allocs/op"],
			PrevBytes: pb.Metrics["B/op"], Bytes: cb.Metrics["B/op"],
		}
		if pt.Allocs > 0 {
			pt.AllocsRatio = pt.PrevAllocs / pt.Allocs
		}
		out[name] = pt
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// parse reads benchstat-compatible benchmark text: lines of the form
//
//	BenchmarkName-8  <iters>  <value> <unit>  <value> <unit> ...
//
// Non-benchmark lines (goos/goarch headers, PASS/ok trailers) pass
// through unparsed.
func parse(r io.Reader) (*Entry, error) {
	e := &Entry{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		name := f[0]
		// Strip the trailing -GOMAXPROCS decoration from the last path
		// element.
		if i := strings.LastIndexByte(name, '-'); i > strings.LastIndexByte(name, '/') {
			name = name[:i]
		}
		b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[f[i+1]] = v
		}
		e.Benchmarks = append(e.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	e.EventVsDense = compare(e.Benchmarks)
	return e, nil
}

// compare pairs ".../event" and ".../dense" variants that share a
// parent name and report ns/cycle.
func compare(bs []Benchmark) map[string]Comparison {
	type pair struct{ event, dense float64 }
	pairs := map[string]*pair{}
	for _, b := range bs {
		i := strings.LastIndexByte(b.Name, '/')
		if i < 0 {
			continue
		}
		parent, variant := b.Name[:i], b.Name[i+1:]
		v, ok := b.Metrics["ns/cycle"]
		if !ok {
			continue
		}
		p := pairs[parent]
		if p == nil {
			p = &pair{}
			pairs[parent] = p
		}
		switch variant {
		case "event":
			p.event = v
		case "dense":
			p.dense = v
		}
	}
	out := map[string]Comparison{}
	for parent, p := range pairs {
		if p.event <= 0 || p.dense <= 0 {
			continue
		}
		out[parent] = Comparison{
			DenseNsPerCycle: p.dense,
			EventNsPerCycle: p.event,
			Speedup:         p.dense / p.event,
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// budgetFile is the alloc_budget.json schema: benchmark name (with
// sub-benchmark path, without the -GOMAXPROCS suffix) to the maximum
// permitted allocs/op.
type budgetFile struct {
	Comment string             `json:"comment,omitempty"`
	Budgets map[string]float64 `json:"budgets"`
}

// checkBudget checks e's allocs/op against the budget document and
// reports every violation, in name order, not just the first.
// Benchmarks without an allocs/op column count as missing.
func checkBudget(budget []byte, e *Entry, out io.Writer) error {
	var bf budgetFile
	if err := json.Unmarshal(budget, &bf); err != nil {
		return fmt.Errorf("budget file: %w", err)
	}
	if len(bf.Budgets) == 0 {
		return fmt.Errorf("budget file defines no budgets")
	}
	got := map[string]float64{}
	for _, b := range e.Benchmarks {
		if v, ok := b.Metrics["allocs/op"]; ok {
			got[b.Name] = v
		}
	}
	names := make([]string, 0, len(bf.Budgets))
	for name := range bf.Budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		max := bf.Budgets[name]
		v, ok := got[name]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s: budgeted benchmark missing from input (renamed or not run?)", name))
		case v > max:
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op exceeds budget %.0f", name, v, max))
		default:
			fmt.Fprintf(out, "benchjson: %s: %.0f allocs/op within budget %.0f\n", name, v, max)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation budget exceeded:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
