package sweepd

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cdf/internal/harness"
	"cdf/internal/sweepstore"
)

// Admission errors, mapped to HTTP statuses by the handlers.
var (
	// ErrDraining rejects submissions while the server is shutting down
	// gracefully (503).
	ErrDraining = errors.New("sweepd: draining: not accepting new jobs")
	// ErrQueueFull sheds load when the bounded admission queue is at
	// capacity (429).
	ErrQueueFull = errors.New("sweepd: job queue full")
)

// DefaultMaxQueue bounds the admission queue when the server does not
// override it.
const DefaultMaxQueue = 8

// ServiceConfig configures the sweep service.
type ServiceConfig struct {
	// Store is the shared durable cache + journal; required. The service
	// journals job admissions and completions next to the case records,
	// which is what makes the queue itself crash-recoverable.
	Store *sweepstore.Store
	// Supervisor runs the cases; required.
	Supervisor *Supervisor
	// MaxQueue bounds jobs waiting to run (0 = DefaultMaxQueue); beyond
	// it, submissions are shed with ErrQueueFull.
	MaxQueue int
	// Logf logs service events (nil = silent).
	Logf func(format string, args ...any)
}

// Service is the sweep server: a persistent FIFO job queue executed one
// job at a time (cases within a job run in parallel across the
// supervisor's worker pool), with bounded admission, graceful drain, and
// journal-backed crash recovery.
type Service struct {
	cfg ServiceConfig

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int64

	kick chan struct{} // pokes the runner when work arrives

	drainCtx    context.Context // canceled on Drain: gate for new dispatches
	drainCancel context.CancelFunc
	hardCtx     context.Context // canceled on Stop: cancels in-flight cases
	hardCancel  context.CancelFunc
	runnerDone  chan struct{}
	started     bool
}

// NewService builds the service and recovers the job queue from the
// store's journal: jobs admitted before a crash or drain but not
// completed are requeued (their finished cases replay from the cache);
// completed jobs keep serving their results; journaled terminal failures
// re-seed the circuit breaker.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Store == nil || cfg.Supervisor == nil {
		return nil, errors.New("sweepd: service needs a store and a supervisor")
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	s := &Service{
		cfg:        cfg,
		jobs:       map[string]*Job{},
		kick:       make(chan struct{}, 1),
		runnerDone: make(chan struct{}),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())

	jobs, nextID, err := recoverJobs(cfg.Store, cfg.Supervisor.cfg.Breaker)
	if err != nil {
		return nil, err
	}
	s.nextID = nextID
	for _, j := range jobs {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if j.State() == JobQueued {
			s.logf("sweepd: recovered queued job %s (%d cases)", j.ID, len(j.Cases))
		}
	}
	return s, nil
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Start launches the runner loop. Call once.
func (s *Service) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.run()
}

// Submit admits one job: validates nothing (validate the spec first),
// journals the admission durably, and queues it. Returns ErrDraining or
// ErrQueueFull when the job was not admitted.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	if s.drainCtx.Err() != nil {
		return nil, ErrDraining
	}
	s.mu.Lock()
	queued := 0
	for _, id := range s.order {
		if st := s.jobs[id].State(); st == JobQueued || st == JobRunning {
			queued++
		}
	}
	if queued >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	id := fmt.Sprintf("j%d", s.nextID)
	s.nextID++
	j := newJob(id, spec)
	rec, err := recordJob(j)
	if err == nil {
		err = s.cfg.Store.AppendRecord(rec)
	}
	if err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("sweepd: journal job admission: %w", err)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
	return j, nil
}

// job looks a job up by ID.
func (s *Service) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// nextQueued returns the oldest queued job, FIFO.
func (s *Service) nextQueued() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		if j := s.jobs[id]; j.State() == JobQueued {
			return j
		}
	}
	return nil
}

// run is the job executor loop: one job at a time, cases in parallel.
func (s *Service) run() {
	defer close(s.runnerDone)
	for {
		if s.drainCtx.Err() != nil || s.hardCtx.Err() != nil {
			return
		}
		j := s.nextQueued()
		if j == nil {
			select {
			case <-s.kick:
				continue
			case <-s.drainCtx.Done():
				return
			case <-s.hardCtx.Done():
				return
			}
		}
		s.runJob(j)
	}
}

// runJob executes one job's cases across the worker pool via
// harness.Pool, with the job deadline threaded through as the pool
// context. Three exits:
//
//   - every case terminal → done (journaled),
//   - deadline expired → failed, pending cases marked (journaled),
//   - drain or hard stop → parked back to queued, NOT journaled as done,
//     so a restart requeues it and its finished cases replay from cache.
func (s *Service) runJob(j *Job) {
	s.logf("sweepd: job %s: running %d cases", j.ID, len(j.Cases))
	j.setState(JobRunning, "")
	jctx := s.hardCtx
	cancel := context.CancelFunc(func() {})
	if j.Spec.DeadlineSec > 0 {
		jctx, cancel = context.WithTimeout(jctx, time.Duration(j.Spec.DeadlineSec*float64(time.Second)))
	}
	defer cancel()

	sup := s.cfg.Supervisor
	harness.Pool(jctx, sup.Workers(), len(j.Cases), func(ctx context.Context, i int) error {
		if s.drainCtx.Err() != nil || ctx.Err() != nil {
			return nil // parked or out of time: leave the case pending
		}
		if j.isDone(i) {
			return nil // already terminal (recovered or replayed)
		}
		c := j.Cases[i]
		row := Row{Bench: c.Bench, Mode: c.Opt.Mode.String(), Seed: c.Opt.Seed}
		res, fromCache, err := sup.RunCase(ctx, c.Bench, c.Opt)
		switch {
		case err == nil:
			row.Status = "done"
			row.FromCache = fromCache
			row.Result = &res
			j.complete(i, row)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// The sweep stopped, the case did not fail: stay pending so a
			// restart or the deadline sweep below decides its fate.
		default:
			row.Status = "failed"
			row.Error = err.Error()
			j.complete(i, row)
		}
		return nil
	})

	completed, total, failures := j.progress()
	switch {
	case completed == total:
		j.setState(JobDone, "")
		if err := s.cfg.Store.AppendRecord(recordJobDone(j)); err != nil {
			s.logf("sweepd: job %s: journal completion: %v", j.ID, err)
		}
		s.logf("sweepd: job %s: done (%d cases, %d failed)", j.ID, total, failures)
	case errors.Is(jctx.Err(), context.DeadlineExceeded) && s.hardCtx.Err() == nil:
		for i := range j.Cases {
			if !j.isDone(i) {
				c := j.Cases[i]
				j.complete(i, Row{Bench: c.Bench, Mode: c.Opt.Mode.String(), Seed: c.Opt.Seed,
					Status: "failed", Error: "job deadline exceeded"})
			}
		}
		j.setState(JobFailed, "job deadline exceeded")
		if err := s.cfg.Store.AppendRecord(recordJobDone(j)); err != nil {
			s.logf("sweepd: job %s: journal completion: %v", j.ID, err)
		}
		s.logf("sweepd: job %s: failed: deadline exceeded with %d/%d cases pending", j.ID, total-completed, total)
	default:
		// Drain or hard stop: park. The admission record is already
		// journaled, so a restart requeues this job; the cases that
		// finished are in the cache and will be served without
		// re-simulating.
		j.park()
		s.logf("sweepd: job %s: parked with %d/%d cases done (drain/stop)", j.ID, completed, total)
	}
}

// Drain is the graceful-shutdown path: stop admitting, stop dispatching
// new cases, let in-flight cases finish and persist, park the current
// job, and return once the runner has stopped. ctx bounds the wait; on
// expiry the drain hardens into Stop.
func (s *Service) Drain(ctx context.Context) error {
	s.drainCancel()
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if !started {
		return nil
	}
	select {
	case <-s.runnerDone:
		return nil
	case <-ctx.Done():
		s.hardCancel()
		<-s.runnerDone
		return fmt.Errorf("sweepd: drain grace expired; canceled in-flight cases")
	}
}

// Stop cancels everything in flight and waits for the runner to exit.
// Cases interrupted mid-run are not journaled — exactly like a crash,
// which is what tests use it to simulate.
func (s *Service) Stop() {
	s.drainCancel()
	s.hardCancel()
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.runnerDone
	}
}

// isDone reports whether case i already has a terminal row.
func (j *Job) isDone(i int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done[i]
}

// --- HTTP layer ---

// Health is the /healthz payload: liveness plus the cache, retry, and
// worker-pool counters the satellite tasks surface.
type Health struct {
	Draining    bool             `json:"draining"`
	Jobs        int              `json:"jobs"`
	Queued      int              `json:"queued"`
	Running     int              `json:"running"`
	Cache       sweepstore.Stats `json:"cache"`
	Pool        SupervisorStats  `json:"pool"`
	Quarantined int              `json:"quarantined"`
}

// Health snapshots the service counters.
func (s *Service) Health() Health {
	s.mu.Lock()
	h := Health{Jobs: len(s.order)}
	for _, id := range s.order {
		switch s.jobs[id].State() {
		case JobQueued:
			h.Queued++
		case JobRunning:
			h.Running++
		}
	}
	s.mu.Unlock()
	h.Draining = s.drainCtx.Err() != nil
	h.Cache = s.cfg.Store.Stats()
	h.Pool = s.cfg.Supervisor.Stats()
	h.Quarantined = s.cfg.Supervisor.cfg.Breaker.Quarantined()
	return h
}

// jobSummary is the /jobs list and /jobs/{id} payload.
type jobSummary struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
	Failures  int    `json:"failures"`
	Error     string `json:"error,omitempty"`
}

func summarize(j *Job) jobSummary {
	completed, total, failures := j.progress()
	j.mu.Lock()
	errMsg := j.errMsg
	state := j.state
	j.mu.Unlock()
	return jobSummary{ID: j.ID, State: state, Completed: completed, Total: total,
		Failures: failures, Error: errMsg}
}

// Handler returns the service's HTTP API:
//
//	POST /jobs              submit a JobSpec  → 202 {"id": "j1"} | 400 | 429 | 503
//	GET  /jobs              list job summaries
//	GET  /jobs/{id}         one job's summary
//	GET  /jobs/{id}/results stream rows as cases complete, in case order
//	                        (?format=csv for the canonical table; JSON
//	                        lines otherwise). Cache hits stream without
//	                        re-simulation.
//	GET  /healthz           counters; 503 while draining
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLine))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job spec: " + err.Error()})
		return
	}
	if err := spec.validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{"id": j.ID, "cases": len(j.Cases)})
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]jobSummary, 0, len(ids))
	for _, id := range ids {
		out = append(out, summarize(s.job(id)))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, summarize(j))
}

// handleResults streams the job's rows in case order as they complete —
// partial tables while the sweep is still executing, the full table once
// it is done. Rows already terminal (cache replays, recovered jobs)
// stream immediately.
func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	asCSV := r.URL.Query().Get("format") == "csv"
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	if asCSV {
		w.Header().Set("Content-Type", "text/csv")
		cw := csv.NewWriter(w)
		cw.Write(csvHeader)
		cw.Flush()
		flush()
		for i := range j.Cases {
			row, ok := j.waitRow(r.Context(), i)
			if !ok {
				break
			}
			cw.Write(row.csv())
			cw.Flush()
			flush()
		}
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i := range j.Cases {
		row, ok := j.waitRow(r.Context(), i)
		if !ok {
			return
		}
		enc.Encode(row)
		flush()
	}
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
