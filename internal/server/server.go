package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Config sizes the service.
type Config struct {
	// QueueDepth bounds jobs waiting for a worker; submissions beyond it
	// get 429 + Retry-After (explicit backpressure). Default 64.
	QueueDepth int
	// Workers is the number of concurrent jobs. Each job may itself fan
	// out across experiments.SetParallelism workers. Default 2.
	Workers int
	// JobTimeout bounds one job's execution; an expired job fails with
	// 504 and stops simulating within noc.CancelCheckEvery cycles.
	// Default 5m.
	JobTimeout time.Duration
	// CacheEntries bounds the content-addressed result cache. Default 1024.
	CacheEntries int
}

func (c *Config) setDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
}

// Errors submit can return.
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining means the server is shutting down.
	ErrDraining = errors.New("server: draining")
)

// job is one queued request.
type job struct {
	// ctx is the submitter's context (plus the server's force-stop):
	// cancelling it makes the worker abandon the run within
	// noc.CancelCheckEvery simulated cycles.
	//drain:ctxcarrier queue element carries the submitter's ctx across the worker channel
	ctx  context.Context
	c    canonical
	key  string
	done chan jobResult // buffered: the worker never blocks on delivery
}

type jobResult struct {
	body []byte
	err  error
}

// Server executes simulation jobs from a bounded queue over a fixed
// worker pool, with a content-addressed result cache in front.
type Server struct {
	cfg   Config
	cache *resultCache

	mu       sync.RWMutex // guards queue close vs. submit
	queue    chan *job
	draining bool

	wg sync.WaitGroup
	//drain:ctxcarrier process-lifetime kill switch, not a call-scoped ctx; ForceStop cancels it to abort all in-flight jobs
	forceCtx  context.Context // cancelled by ForceStop: aborts in-flight jobs
	forceStop context.CancelFunc

	metrics serverMetrics
	start   time.Time
}

// New builds and starts a Server (its worker pool runs immediately).
func New(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheEntries),
		queue: make(chan *job, cfg.QueueDepth),
		start: time.Now(),
	}
	s.forceCtx, s.forceStop = context.WithCancel(context.Background())
	s.metrics.queueCap = cfg.QueueDepth
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// worker executes queued jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.metrics.inflight.Add(1)
		started := time.Now()
		var res jobResult
		if err := j.ctx.Err(); err != nil {
			// The submitter vanished while the job sat in the queue:
			// don't burn a worker on a result nobody wants.
			res.err = err
		} else {
			ctx, cancel := context.WithTimeout(j.ctx, s.cfg.JobTimeout)
			res.body, res.err = s.execute(ctx, j.key, j.c)
			cancel()
		}
		if res.err == nil {
			s.cache.Put(j.key, res.body)
		}
		s.metrics.observe(time.Since(started), res.err)
		j.done <- res
		s.metrics.inflight.Add(-1)
	}
}

// submit enqueues a job without blocking. ErrQueueFull is the
// backpressure signal; ErrDraining means shutdown has begun.
func (s *Server) submit(j *job) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// Close drains and stops the worker pool: no new submissions are
// accepted, every queued and in-flight job runs to completion, and
// Close returns when the pool is idle. Call ForceStop first (or
// concurrently) to abort in-flight jobs instead of finishing them.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ForceStop cancels the context of every in-flight and queued job.
// Submitters receive cancellation errors; workers stop within
// noc.CancelCheckEvery simulated cycles.
func (s *Server) ForceStop() { s.forceStop() }

// Handler returns the service's HTTP routes:
//
//	POST /v1/jobs  — submit a figure or sweep job (JSON Request body)
//	GET  /metrics  — queue/cache/latency counters, text format
//	GET  /healthz  — 200 "ok", or 503 "draining" during shutdown
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// maxBody bounds request bodies; every valid Request is tiny.
const maxBody = 1 << 20

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	c, err := req.Canonicalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := c.Key()
	if body, ok := s.cache.Get(key); ok {
		writeBody(w, "hit", body)
		return
	}

	// Two identical requests racing past the cache miss both compute;
	// determinism makes either result correct and both Puts identical,
	// so no single-flight coordination is needed for correctness.
	jctx, jcancel := context.WithCancel(r.Context())
	defer jcancel()
	stop := context.AfterFunc(s.forceCtx, jcancel)
	defer stop()
	j := &job{ctx: jctx, c: c, key: key, done: make(chan jobResult, 1)}
	if err := s.submit(j); err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "server is draining")
		default:
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, "job queue full; retry later")
		}
		return
	}
	select {
	case res := <-j.done:
		if res.err != nil {
			switch {
			case errors.Is(res.err, context.DeadlineExceeded):
				writeError(w, http.StatusGatewayTimeout, "job timed out: "+res.err.Error())
			case errors.Is(res.err, context.Canceled):
				// Client is gone or the server was force-stopped; the
				// status is best-effort.
				writeError(w, http.StatusServiceUnavailable, "job cancelled: "+res.err.Error())
			default:
				writeError(w, http.StatusInternalServerError, res.err.Error())
			}
			return
		}
		writeBody(w, "miss", res.body)
	case <-r.Context().Done():
		// The client hung up: jcancel (deferred) propagates into the
		// worker, which stops within noc.CancelCheckEvery cycles. The
		// buffered done channel lets it publish the result regardless.
	}
}

// retryAfterSeconds estimates how long a 429'd client should wait: the
// median job latency (rounded up), or 1s before any job has finished.
func (s *Server) retryAfterSeconds() int {
	p50 := s.metrics.latencyP50()
	if p50 <= 0 {
		return 1
	}
	secs := int((p50 + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeBody(w http.ResponseWriter, cacheStatus string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheStatus)
	w.Write(body)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// QueueDepth returns the number of queued (not yet running) jobs.
func (s *Server) QueueDepth() int { return len(s.queue) }

// InFlight returns the number of jobs currently executing.
func (s *Server) InFlight() int { return int(s.metrics.inflight.Load()) }

// CacheStats returns (hits, misses, entries).
func (s *Server) CacheStats() (hits, misses int64, entries int) {
	return s.cache.Hits(), s.cache.Misses(), s.cache.Len()
}

// JobsExecuted returns how many jobs workers have run (cache hits
// excluded — a hit never reaches the pool).
func (s *Server) JobsExecuted() int64 { return s.metrics.jobsTotal.Load() }

// uptime is split out for the metrics page.
func (s *Server) uptime() time.Duration { return time.Since(s.start) }
