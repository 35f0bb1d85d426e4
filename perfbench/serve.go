package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"time"

	"drain/internal/server"
	"drain/internal/sim"
)

const (
	// serveRate is the open-loop arrival rate (requests/s), far below
	// what two server workers sustain on this mix, so queues stay short
	// and latency measures service, not backlog.
	serveRate = 150
	// serveMinRequests keeps at least minBeyond samples beyond the p99.
	serveMinRequests = 100 * minBeyond
	// serveWorkers is the server's job-worker count (drainserved's default).
	serveWorkers = 2
	// verifySample is how many distinct miss bodies are recomputed with
	// a direct sim.LoadSweep.
	verifySample = 6
)

// serveUniverse is the fixed set of small sweep requests the schedule
// draws from: 4x4 and 8x8 meshes, three schemes, with and without
// faults, one or two rates, eight seeds. 192 entries fit the server's
// default cache, so every repeat is a hit.
func serveUniverse() []server.Request {
	var out []server.Request
	for _, side := range []int{4, 8} {
		for _, scheme := range []string{"drain", "spin", "escape"} {
			for _, faults := range []int{0, 2} {
				for _, rates := range [][]float64{{0.02}, {0.05, 0.10}} {
					for seed := uint64(1); seed <= 8; seed++ {
						out = append(out, server.Request{
							Kind: server.KindSweep, Scheme: scheme, Width: side, Height: side,
							Faults: faults, FaultSeed: seed, Rates: rates,
							Warmup: 200, Measure: 600, Seed: seed,
						})
					}
				}
			}
		}
	}
	return out
}

// warmupRequest is the first request of every server start; it is not
// in the universe, so the measured schedule starts with a cold cache.
var warmupRequest = server.Request{Kind: server.KindSweep, Width: 4, Height: 4, Rates: []float64{0.05}, Warmup: 100, Measure: 200, Seed: 99}

// service is one running server behind a loopback HTTP listener.
type service struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

// startService starts a server and answers its warm-up request: the
// time a user waits from start to first answer.
func startService(conns int) (*service, error) {
	s := &service{srv: server.New(server.Config{Workers: serveWorkers})}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	if r := s.post(warmupRequest); r.err != nil || r.status != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("warm-up request: status %d, %v", r.status, r.err)
	}
	return s, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// reply is one HTTP exchange.
type reply struct {
	status int
	cache  string // X-Cache: hit or miss
	body   []byte
	err    error
}

func (s *service) post(req server.Request) reply {
	data, err := json.Marshal(req)
	if err != nil {
		return reply{err: err}
	}
	resp, err := s.client.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body, err: err}
}

// servePass is the outcome of one schedule against one server.
type servePass struct {
	setup   []float64 // seconds, one per server start
	sent    []sent
	replies []reply
	sched   []arrival
	wall    time.Duration // first due time to last completion
	cpu     time.Duration // process CPU time over the schedule
}

// runServe starts the server setupRepeats times (keeping the last),
// then plays the seed's open-loop schedule against it over at most
// nproc connections.
func runServe(cfg config) (*servePass, error) {
	conns := runtime.NumCPU()
	var p servePass
	var s *service
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = startService(conns); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, secs(time.Since(start)))
	}
	defer s.close()

	universe := serveUniverse()
	n := max(serveMinRequests, int(serveRate*cfg.seconds.Seconds()))
	p.sched = schedule(cfg.seed, n, len(universe), cfg.seconds)
	p.replies = make([]reply, n)
	start, cpu0 := time.Now(), cpuTime()
	p.sent = openLoop(p.sched, conns, func(i int) {
		p.replies[i] = s.post(universe[p.sched[i].key])
	})
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	return &p, nil
}

// verifyServe counts every request: it fails unless it got 200 with a
// body equal to every other body for its key; a sample of distinct
// keys is also recomputed with a direct sim.LoadSweep.
func verifyServe(p *servePass, t *tally) {
	universe := serveUniverse()
	first := map[int][]byte{}
	var sample []int
	for i, r := range p.replies {
		key := p.sched[i].key
		switch {
		case r.err != nil:
			t.fail("request %d: %v", i, r.err)
			continue
		case r.status != http.StatusOK:
			t.fail("request %d: status %d: %s", i, r.status, bytes.TrimSpace(r.body))
			continue
		case r.cache != "hit" && r.cache != "miss":
			t.fail("request %d: X-Cache %q", i, r.cache)
			continue
		}
		body, seen := first[key]
		switch {
		case !seen:
			first[key] = r.body
			if r.cache == "miss" && len(sample) < verifySample {
				sample = append(sample, key)
			}
			t.pass()
		case !bytes.Equal(body, r.body):
			t.fail("request %d: %s body for universe entry %d differs from its first body", i, r.cache, key)
		default:
			t.pass()
		}
	}
	for _, key := range sample {
		t.check(fmt.Sprintf("direct sweep of universe entry %d", key), checkSweepBody(universe[key], first[key]))
	}
}

// checkSweepBody recomputes req with sim.LoadSweep and compares every
// table cell of the served body.
func checkSweepBody(req server.Request, body []byte) error {
	c, err := req.Canonicalize()
	if err != nil {
		return err
	}
	curve, err := sim.LoadSweep(c.Params, c.Pattern, c.Rates, c.Warmup, c.Measure)
	if err != nil {
		return err
	}
	var resp server.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Key != c.Key() || len(resp.Tables) != 1 {
		return fmt.Errorf("response key %s (want %s), %d tables", resp.Key, c.Key(), len(resp.Tables))
	}
	var want [][]string
	for _, pt := range curve {
		want = append(want, []string{
			fmt.Sprintf("%.3f", pt.Offered), fmt.Sprintf("%.4f", pt.Accepted),
			fmt.Sprintf("%.1f", pt.AvgLat), fmt.Sprintf("%d", pt.P99Lat),
		})
	}
	if !slices.EqualFunc(want, resp.Tables[0].Rows, slices.Equal[[]string]) {
		return fmt.Errorf("served rows %v, direct sweep %v", resp.Tables[0].Rows, want)
	}
	return nil
}

// latencies returns each request's latency from its due time in ms; a
// failed request counts as missing every latency limit (+Inf).
func latencies(p *servePass) []float64 {
	out := make([]float64, len(p.sent))
	for i, s := range p.sent {
		out[i] = ms(s.latency)
		if r := p.replies[i]; r.err != nil || r.status != http.StatusOK {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// serveMixed plays the open-loop hit/miss mix against an in-process server.
func serveMixed(cfg config, m metrics, t *tally) error {
	p, err := runServe(cfg)
	if err != nil {
		return err
	}
	verifyServe(p, t)
	lat := latencies(p)
	m.set("wall_s", "s", secs(p.wall))
	m.set("cpu_s", "s", secs(p.cpu))
	m.set("setup_s", "s", median(p.setup))
	m.set("job_p50_ms", "ms", median(lat))
	v, label := tail(lat)
	fmt.Fprintf(os.Stderr, "serve-mixed: %d requests; latency tail (%s) %.3f ms\n", len(lat), label, v)
	return nil
}
