package sweepd

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"cdf"
	"cdf/internal/core"
	"cdf/internal/sweepstore"
)

// JobSpec is what a client submits: the (kernel × config × seed) case
// space of one sweep, plus per-case and per-job time bounds. The zero
// value sweeps every kernel on the three paper machines with seed 1.
type JobSpec struct {
	// Benchmarks restricts the sweep (nil = all kernels).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Modes names the machine configurations: "baseline", "cdf", "pre",
	// "hybrid" (nil = the paper's three: baseline, cdf, pre).
	Modes []string `json:"modes,omitempty"`
	// Seeds are the wrong-path model seeds, one sweep pass per seed
	// (nil = {1}).
	Seeds []uint64 `json:"seeds,omitempty"`
	// MaxUops bounds each run (0 = the library default).
	MaxUops uint64 `json:"max_uops,omitempty"`
	// WarmupUops per run, excluded from statistics.
	WarmupUops uint64 `json:"warmup_uops,omitempty"`
	// Frontend enables the instruction-supply engine for every case;
	// FDIP and ShadowBTB layer the prefetcher and shadow decoder on top,
	// PerfectL1I is the always-hits upper bound. Every case times its L1I,
	// so l1i_mpki and the fetch-stall split are reported either way; the
	// ftq occupancy column is zero unless FDIP is set.
	Frontend   bool `json:"frontend,omitempty"`
	PerfectL1I bool `json:"perfect_l1i,omitempty"`
	FDIP       bool `json:"fdip,omitempty"`
	ShadowBTB  bool `json:"shadow_btb,omitempty"`
	// TimeoutSec bounds one case's wall-clock time inside the worker
	// (0 = none).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// DeadlineSec bounds the whole job; cases still pending when it
	// expires are marked failed with reason "deadline" (0 = none).
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
}

// normalize fills defaults and validates names against the registries.
func (sp *JobSpec) normalize() error {
	known := map[string]bool{}
	for _, b := range cdf.Benchmarks() {
		known[b.Name] = true
	}
	if len(sp.Benchmarks) == 0 {
		for _, b := range cdf.Benchmarks() {
			sp.Benchmarks = append(sp.Benchmarks, b.Name)
		}
		sort.Strings(sp.Benchmarks)
	}
	for _, b := range sp.Benchmarks {
		if !known[b] {
			return fmt.Errorf("sweepd: unknown benchmark %q", b)
		}
	}
	if len(sp.Modes) == 0 {
		sp.Modes = []string{"baseline", "cdf", "pre"}
	}
	for _, m := range sp.Modes {
		if _, err := core.ParseMode(m); err != nil {
			return fmt.Errorf("sweepd: %w", err)
		}
	}
	if len(sp.Seeds) == 0 {
		sp.Seeds = []uint64{1}
	}
	for _, s := range sp.Seeds {
		if s == 0 {
			return fmt.Errorf("sweepd: seed 0 is reserved (it means \"randomize\" elsewhere); use an explicit seed")
		}
	}
	if sp.TimeoutSec < 0 || sp.DeadlineSec < 0 {
		return fmt.Errorf("sweepd: negative time bound")
	}
	return nil
}

// validate is the admission check: normalize, then cdf.Options.Validate
// on every expanded case, so a spec whose cases could only fail is
// rejected instead of journaled. Recovery runs normalize alone and so
// never rejects a job an earlier server admitted.
func (sp *JobSpec) validate() error {
	if err := sp.normalize(); err != nil {
		return err
	}
	for _, c := range sp.cases() {
		if err := c.Opt.Validate(); err != nil {
			return fmt.Errorf("sweepd: %w", err)
		}
	}
	return nil
}

// Case is one expanded (kernel, config, seed) point.
type Case struct {
	Bench string
	Opt   cdf.Options
}

// cases expands the spec in its deterministic row order: benchmark-major,
// then mode, then seed. Streaming and CSV rendering follow this order, so
// a resumed job renders byte-identically to an uninterrupted one.
func (sp JobSpec) cases() []Case {
	var out []Case
	for _, b := range sp.Benchmarks {
		for _, m := range sp.Modes {
			mode, _ := core.ParseMode(m) // validated by normalize
			for _, seed := range sp.Seeds {
				out = append(out, Case{Bench: b, Opt: cdf.Options{
					Mode:       mode,
					MaxUops:    sp.MaxUops,
					WarmupUops: sp.WarmupUops,
					Seed:       seed,
					Timeout:    time.Duration(sp.TimeoutSec * float64(time.Second)),
					Frontend:   sp.Frontend,
					PerfectL1I: sp.PerfectL1I,
					FDIP:       sp.FDIP,
					ShadowBTB:  sp.ShadowBTB,
				}})
			}
		}
	}
	return out
}

// Row is one case's outcome, streamed to clients as it completes.
type Row struct {
	Bench     string      `json:"bench"`
	Mode      string      `json:"mode"`
	Seed      uint64      `json:"seed"`
	Status    string      `json:"status"` // "done" | "failed"
	FromCache bool        `json:"from_cache,omitempty"`
	Error     string      `json:"error,omitempty"`
	Result    *cdf.Result `json:"result,omitempty"`
}

// csvHeader and (Row).csv render the deterministic table the smoke tests
// byte-compare across crash/restart runs; volatile fields (from_cache,
// attempt counts) are deliberately excluded.
var csvHeader = []string{"bench", "mode", "seed", "status", "cycles", "uops", "ipc", "mlp", "mem_traffic", "energy_pj",
	"l1i_mpki", "ftq_avg_occupancy", "fetch_stall_imiss", "fetch_stall_btb", "fetch_stall_redirect"}

func (r Row) csv() []string {
	rec := make([]string, len(csvHeader))
	rec[0], rec[1], rec[2], rec[3] = r.Bench, r.Mode, strconv.FormatUint(r.Seed, 10), r.Status
	if r.Result != nil {
		rec[4] = strconv.FormatUint(r.Result.Cycles, 10)
		rec[5] = strconv.FormatUint(r.Result.Uops, 10)
		rec[6] = strconv.FormatFloat(r.Result.IPC, 'f', 6, 64)
		rec[7] = strconv.FormatFloat(r.Result.Metric("mlp"), 'f', 6, 64)
		rec[8] = strconv.FormatFloat(r.Result.Metric("mem_traffic"), 'f', 0, 64)
		rec[9] = strconv.FormatFloat(r.Result.EnergyPJ, 'f', 3, 64)
		for i, m := range csvHeader[10:] {
			rec[10+i] = strconv.FormatFloat(r.Result.Metric(m), 'f', 3, 64)
		}
	}
	return rec
}

// WriteCSV renders rows as the canonical sweep table.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r.csv()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"   // every case has a terminal row (some may be failed)
	JobFailed  = "failed" // the job itself died: deadline exceeded
)

// Job is one admitted sweep. Its identity and spec are journaled at
// admission, so a crashed or drained server requeues it on restart; its
// completion is journaled when the last case lands.
type Job struct {
	ID       string
	Spec     JobSpec
	Cases    []Case
	Accepted time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	state    string
	parked   bool // drained mid-run; queued again but streams should end
	rows     []Row
	done     []bool
	failures int
	errMsg   string
}

func newJob(id string, spec JobSpec) *Job {
	j := &Job{ID: id, Spec: spec, Cases: spec.cases(), state: JobQueued}
	j.rows = make([]Row, len(j.Cases))
	j.done = make([]bool, len(j.Cases))
	j.cond = sync.NewCond(&j.mu)
	return j
}

// State returns the job's lifecycle state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) setState(s string, errMsg string) {
	j.mu.Lock()
	j.state = s
	j.parked = false
	if errMsg != "" {
		j.errMsg = errMsg
	}
	j.mu.Unlock()
	j.cond.Broadcast()
}

// park returns a drained job to the queue for the next server life while
// letting its result streams end rather than hang across the restart.
func (j *Job) park() {
	j.mu.Lock()
	j.state = JobQueued
	j.parked = true
	j.mu.Unlock()
	j.cond.Broadcast()
}

// complete lands case i's terminal row and wakes streamers.
func (j *Job) complete(i int, row Row) {
	j.mu.Lock()
	if !j.done[i] {
		j.rows[i] = row
		j.done[i] = true
		if row.Status != "done" {
			j.failures++
		}
	}
	j.mu.Unlock()
	j.cond.Broadcast()
}

// progress returns (completed, total, failures).
func (j *Job) progress() (int, int, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, d := range j.done {
		if d {
			n++
		}
	}
	return n, len(j.Cases), j.failures
}

// waitRow blocks until case i has a terminal row, the job reaches a
// terminal or paused state without one, or ctx fires. ok reports whether
// the row is valid.
func (j *Job) waitRow(ctx context.Context, i int) (Row, bool) {
	stop := context.AfterFunc(ctx, j.cond.Broadcast)
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.done[i] {
			return j.rows[i], true
		}
		if ctx.Err() != nil || j.state == JobDone || j.state == JobFailed || j.parked {
			// Parked means the server drained mid-job; the stream ends
			// with the rows that landed rather than hanging across the
			// restart.
			return Row{}, false
		}
		j.cond.Wait()
	}
}

// snapshotRows returns the completed prefix-independent row set (rows
// whose cases are still pending are zero-valued with done=false).
func (j *Job) snapshotRows() ([]Row, []bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rows := append([]Row(nil), j.rows...)
	done := append([]bool(nil), j.done...)
	return rows, done
}

// --- journal persistence ---

// recordJob encodes a job admission for the sweepstore journal.
func recordJob(j *Job) (sweepstore.Record, error) {
	raw, err := json.Marshal(j.Spec)
	if err != nil {
		return sweepstore.Record{}, err
	}
	return sweepstore.Record{Type: sweepstore.RecordJob, JobID: j.ID, Spec: raw}, nil
}

// recordJobDone encodes a job completion.
func recordJobDone(j *Job) sweepstore.Record {
	return sweepstore.Record{Type: sweepstore.RecordJobDone, JobID: j.ID, Status: j.State()}
}

// recoverJobs rebuilds the queue from the journal: every admitted job
// without a completion record is requeued (its finished cases will be
// served from the cache, so requeueing is cheap, not wasteful); completed
// jobs are rebuilt with their rows re-derived from the cache and failure
// records so /jobs/{id}/results keeps working across restarts. Failure
// records also seed the circuit breaker: a case that kept failing before
// the crash stays quarantined after it.
func recoverJobs(store *sweepstore.Store, breaker *Breaker) (jobs []*Job, nextID int64, err error) {
	type jstate struct {
		job      *Job
		terminal string
	}
	var order []string
	byID := map[string]*jstate{}
	failedKeys := map[string]int{}
	nextID = 1
	for _, rec := range store.Records() {
		switch rec.Type {
		case sweepstore.RecordJob:
			var spec JobSpec
			if err := json.Unmarshal(rec.Spec, &spec); err != nil {
				return nil, 0, fmt.Errorf("sweepd: journal job %s: bad spec: %w", rec.JobID, err)
			}
			if err := spec.normalize(); err != nil {
				return nil, 0, fmt.Errorf("sweepd: journal job %s: %w", rec.JobID, err)
			}
			if byID[rec.JobID] == nil {
				byID[rec.JobID] = &jstate{job: newJob(rec.JobID, spec)}
				order = append(order, rec.JobID)
			}
			if len(rec.JobID) > 1 {
				if n, perr := strconv.ParseInt(rec.JobID[1:], 10, 64); perr == nil && n >= nextID {
					nextID = n + 1
				}
			}
		case sweepstore.RecordJobDone:
			if st := byID[rec.JobID]; st != nil {
				st.terminal = rec.Status
			}
		case sweepstore.RecordCase:
			if rec.Status == sweepstore.StatusFailed && rec.Key != "" {
				failedKeys[rec.Key]++
			} else if rec.Status == sweepstore.StatusDone {
				delete(failedKeys, rec.Key)
			}
		}
	}
	for key, n := range failedKeys {
		for i := 0; i < n; i++ {
			breaker.Failure(key)
		}
	}
	for _, id := range order {
		st := byID[id]
		j := st.job
		if st.terminal != "" {
			rebuildRows(store, j)
			j.state = st.terminal
		}
		jobs = append(jobs, j)
	}
	return jobs, nextID, nil
}

// rebuildRows re-derives a completed job's rows from the cache: every
// case of a done job either has a verified cached result or failed
// terminally.
func rebuildRows(store *sweepstore.Store, j *Job) {
	for i, c := range j.Cases {
		row := Row{Bench: c.Bench, Mode: c.Opt.Mode.String(), Seed: c.Opt.Seed}
		if key, err := cdf.CaseKey(c.Bench, c.Opt); err == nil {
			if res, ok := cdf.CachedResult(store, key, c.Bench, c.Opt.Mode); ok {
				row.Status = "done"
				row.FromCache = true
				row.Result = &res
			}
		}
		if row.Status == "" {
			row.Status = "failed"
			row.Error = "failed before the last restart (see journal)"
			j.failures++
		}
		j.rows[i] = row
		j.done[i] = true
	}
}
