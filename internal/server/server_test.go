package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"drain/internal/experiments"
	"drain/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.ForceStop()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A served figure must carry exactly the markdown cmd/experiments
// renders for the same experiment, and resubmitting the same request
// must be a cache hit with byte-identical body and no recomputation.
func TestFigureJobMatchesCLIAndCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	resp, body := postJob(t, ts.URL, `{"fig":"fig6"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decode response: %v", err)
	}

	e, ok := experiments.ByID("fig6")
	if !ok {
		t.Fatal("fig6 not in registry")
	}
	tables, err := e.Run(context.Background(), experiments.Quick, 1)
	if err != nil {
		t.Fatalf("direct fig6 run: %v", err)
	}
	want := experiments.RenderFigure(e, tables)
	if r.Markdown != want {
		t.Fatalf("served markdown differs from cmd/experiments rendering:\n--- served ---\n%s\n--- direct ---\n%s", r.Markdown, want)
	}

	resp2, body2 := postJob(t, ts.URL, `{"kind":"figure","fig":"fig6","scale":"quick","seed":1}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("resubmit X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cache hit body differs from original miss body")
	}
	if n := s.JobsExecuted(); n != 1 {
		t.Fatalf("JobsExecuted = %d after identical resubmit, want 1 (no recompute)", n)
	}
}

// A served sweep must report the same curve sim.LoadSweep computes.
func TestSweepJobMatchesLoadSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	req := `{"kind":"sweep","width":4,"height":4,"faults":2,"rates":[0.02,0.05],"warmup":200,"measure":500}`
	resp, body := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(r.Tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(r.Tables))
	}

	p := sim.Params{Width: 4, Height: 4, Faults: 2, FaultSeed: 1, Scheme: sim.SchemeDRAIN, Seed: 1}
	curve, err := sim.LoadSweep(p, "uniform", []float64{0.02, 0.05}, 200, 500)
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}
	if len(r.Tables[0].Rows) != len(curve) {
		t.Fatalf("served %d rows, direct sweep has %d points", len(r.Tables[0].Rows), len(curve))
	}
	for i, pt := range curve {
		want := []string{
			fmt.Sprintf("%.3f", pt.Offered),
			fmt.Sprintf("%.4f", pt.Accepted),
			fmt.Sprintf("%.1f", pt.AvgLat),
			fmt.Sprintf("%d", pt.P99Lat),
		}
		for j := range want {
			if r.Tables[0].Rows[i][j] != want[j] {
				t.Fatalf("row %d col %d: served %q, direct %q", i, j, r.Tables[0].Rows[i][j], want[j])
			}
		}
	}
}

// slowSweep returns a request body whose simulation runs long enough to
// occupy a worker until cancelled; seed varies the cache key per call.
func slowSweep(seed int) string {
	return fmt.Sprintf(`{"kind":"sweep","width":8,"height":8,"seed":%d,"rates":[0.1],"measure":2000000000}`, seed)
}

// With one worker and a one-slot queue, a third concurrent job must be
// rejected with 429 and a Retry-After hint, and cancelling the slow
// jobs must return the pool to idle.
func TestQueueFullBackpressureAndCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	launch := func(seed int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v1/jobs", strings.NewReader(slowSweep(seed)))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	launch(101)
	waitFor(t, "first job in flight", func() bool { return s.InFlight() == 1 })
	launch(102)
	waitFor(t, "second job queued", func() bool { return s.QueueDepth() == 1 })

	resp, body := postJob(t, ts.URL, slowSweep(103))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}

	// Hang up both slow clients: the in-flight run must stop within
	// noc.CancelCheckEvery cycles and the queued one must be skipped.
	cancel()
	wg.Wait()
	waitFor(t, "pool idle after cancel", func() bool {
		return s.InFlight() == 0 && s.QueueDepth() == 0
	})
	if hits, _, _ := s.CacheStats(); hits != 0 {
		t.Fatalf("cancelled jobs produced %d cache hits", hits)
	}
}

// Close must finish queued work, then reject new submissions and flip
// /healthz to draining.
func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJob(t, ts.URL, `{"fig":"fig6"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up job status %d", resp.StatusCode)
	}

	s.Close() // drains: the completed job is already through

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hz.StatusCode)
	}

	resp2, body := postJob(t, ts.URL, `{"fig":"fig5"}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d (%s), want 503", resp2.StatusCode, body)
	}
}

func TestHealthzOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	postJob(t, ts.URL, `{"fig":"fig6"}`) // miss + execute
	postJob(t, ts.URL, `{"fig":"fig6"}`) // hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"drainserved_queue_depth 0",
		"drainserved_queue_capacity 64",
		"drainserved_jobs_inflight 0",
		"drainserved_jobs_total 1",
		"drainserved_jobs_failed 0",
		"drainserved_cache_hits 1",
		"drainserved_cache_misses 1",
		"drainserved_cache_entries 1",
		"drainserved_cache_hit_rate 0.5000",
		"drainserved_sim_cycles_total ",
		"drainserved_sim_cycles_per_second ",
		"drainserved_sim_fastforward_cycles_total ",
		"drainserved_sim_fastforward_fraction ",
		"drainserved_job_latency_ms_count 1",
		"drainserved_job_latency_ms_p50 ",
		"drainserved_job_latency_ms_p99 ",
		"drainserved_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestBadRequestsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, body := range []string{
		`{`,                             // malformed JSON
		`{"figs":"fig6"}`,               // unknown field
		`{"fig":"fig999"}`,              // unknown figure
		`{"kind":"sweep","width":1000}`, // out-of-range mesh
		// rng_mode is not a request field: every spelling is unknown.
		`{"kind":"sweep","rng_mode":"fast"}`,
		`{"kind":"sweep","rng_mode":"exact"}`,
		`{"fig":"fig6","rng_mode":"counter"}`,
		`{"fig":"fig6","rng_mode":"fast"}`,
		// shards is not a request field either.
		`{"kind":"sweep","shards":2}`,
	} {
		resp, data := postJob(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d (%s), want 400", body, resp.StatusCode, data)
			continue
		}
		var e errorBody
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("POST %s: error body %q not the JSON envelope", body, data)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs = %d, want 405", resp.StatusCode)
	}
}
