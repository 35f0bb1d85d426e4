package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: its name, start and end from the
// tracer's origin, and the index of the span that caused it (-1 for a
// root).
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced workloads share the traced code paths.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.origin)
}

func (t *tracer) dur(i int) time.Duration { return t.spans[i].end - t.spans[i].start }

// total sums the durations of the children of parent named name.
func (t *tracer) total(parent int, name string) time.Duration {
	var d time.Duration
	for i := parent + 1; i < len(t.spans); i++ {
		if s := t.spans[i]; s.parent == parent && s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// write dumps every span as one gzipped JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for i, s := range t.spans {
		rec := struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Parent  int    `json:"parent"`
		}{i, s.name, int64(s.start), int64(s.end), s.parent}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceFile is where a traced run leaves its spans.
func traceFile(cfg config, workload string) string {
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", workload, cfg.seed))
}
