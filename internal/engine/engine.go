package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hscsim/internal/system"
)

// Typed job-lifecycle errors.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity — the HTTP service maps it to 429.
	ErrQueueFull = errors.New("engine: job queue full")
	// ErrDraining is returned by Submit after Drain or Close began.
	ErrDraining = errors.New("engine: draining, not accepting jobs")
	// ErrCanceled marks a job that was cancelled before or during
	// execution (drain discards the queue with this error).
	ErrCanceled = errors.New("engine: job canceled")
)

// JobState is a job's lifecycle position.
type JobState int32

// Job lifecycle states.
const (
	Queued JobState = iota
	Running
	Done
	Failed
	Canceled
)

func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("JobState(%d)", int32(s))
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Job is one submitted simulation. Its identity is the spec hash;
// submitting the same spec twice returns the same Job (singleflight).
type Job struct {
	Spec Spec
	Hash string

	e      *Engine // e.mu guards state, cached, result, err and cancel
	state  JobState
	cached bool
	result []byte // a hit's is the cache's own: never written, copied by Result
	err    error
	cancel context.CancelFunc // non-nil while running
	done   chan struct{}
}

// jobView is one consistent read of a job's mutable fields.
type jobView struct {
	state  JobState
	cached bool
	result []byte // shared with the job, which never writes into it
	err    error
}

// view reads the job's state, cached flag, result and error under one
// acquisition of the engine lock, so they never contradict each other.
func (j *Job) view() jobView {
	j.e.mu.Lock()
	defer j.e.mu.Unlock()
	return jobView{j.state, j.cached, j.result, j.err}
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState { return j.view().state }

// Cached reports whether the result was served from the cache rather
// than computed by this job.
func (j *Job) Cached() bool { return j.view().cached }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns a copy of the canonical result bytes, which the
// caller owns, or the job's error. It must be called after Done is
// closed (Wait does both).
func (j *Job) Result() ([]byte, error) {
	v := j.view()
	if !v.state.Terminal() {
		return nil, fmt.Errorf("engine: job %s still %s", j.Hash[:12], v.state)
	}
	return cloneBytes(v.result), v.err
}

// Wait blocks until the job completes or ctx expires.
func (j *Job) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel aborts the job: a queued job completes immediately with
// ErrCanceled; a running job's context is cancelled and the simulation
// stops at its next interrupt poll. Terminal jobs are unaffected.
func (j *Job) Cancel() {
	if cancel := j.e.cancelJob(j); cancel != nil {
		cancel()
	}
}

// finish moves the job to a terminal state. The caller holds j.e.mu,
// or is the only goroutine that can see j.
func (j *Job) finish(st JobState, result []byte, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = st
	j.result = result
	j.err = err
	j.cancel = nil
	close(j.done)
}

// Config sizes the engine.
type Config struct {
	// Workers is the pool size (≤0 = GOMAXPROCS). Each simulation is
	// single-threaded, so Workers is the run-level parallelism.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (≤0 = 256). A full queue rejects Submit with ErrQueueFull.
	QueueDepth int
	// Cache memoizes results (nil = a private in-memory Cache).
	// Engines in one process may share a Cache; processes share results
	// by opening Caches over one directory.
	Cache *Cache
	// RetainJobs bounds the in-memory job index: once a job is
	// terminal (and a successful result is memoized in the cache), it
	// is retired into a FIFO of at most RetainJobs entries and then
	// dropped from the index (≤0 = 512). Status and result reads for
	// dropped jobs are served from the cache (see Engine.CachedResult);
	// without this bound the index grows by one entry per distinct
	// spec forever.
	RetainJobs int
	// JobTimeout bounds each job's execution (0 = none).
	JobTimeout time.Duration
	// Exec executes one spec (nil = the real simulator, as Execute runs
	// it, on a system each worker keeps and resets between jobs).
	// Tests substitute stubs to exercise scheduling and shutdown.
	Exec func(context.Context, Spec) ([]byte, error)
}

// Engine is the concurrent simulation-job engine: a bounded worker
// pool with singleflight dedup in front of a content-addressed result
// cache.
//
// The engine has two locks, Engine.mu and Cache.mu, and no code holds
// both. Engine.mu guards the job index and its retention FIFO, the
// drain flag, the running count and every job's state (see Job). Each
// section under it touches only fields, maps, slices, close and
// non-blocking channel operations, so cache disk I/O, executors and
// cancel funcs always run outside it.
type Engine struct {
	exec    func(context.Context, Spec) ([]byte, error) // nil: each worker's runner
	cache   *Cache
	timeout time.Duration
	retain  int

	// Counters: bumped by Submit and the workers, read by Stats from
	// any goroutine.
	cSubmitted, cDedup, cCacheHits       atomic.Uint64
	cDone, cFailed, cCanceled, cTimeouts atomic.Uint64
	cRejected, cEvicted                  atomic.Uint64

	queue chan *Job
	wg    sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	retired  []string // FIFO of terminal job hashes still in the index
	draining bool
	running  int
}

// New starts an engine and its worker pool.
func New(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	cache := cfg.Cache
	if cache == nil {
		cache, _ = NewCache(0, "")
	}
	retain := cfg.RetainJobs
	if retain <= 0 {
		retain = 512
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		exec:       cfg.Exec,
		cache:      cache,
		timeout:    cfg.JobTimeout,
		retain:     retain,
		queue:      make(chan *Job, depth),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Cache exposes the engine's result cache.
func (e *Engine) Cache() *Cache { return e.cache }

// CachedResult looks a hash up in the result cache directly. It is how
// the HTTP service keeps GET /jobs/{hash}/result working for jobs that
// have been retired from the in-memory index: the job object is gone,
// but the content-addressed result is forever. The returned bytes are
// the cache's own and read-only; Cache().Get returns a copy.
func (e *Engine) CachedResult(hash string) ([]byte, bool) {
	return e.cache.shared(hash)
}

// Submit enqueues a spec and returns its job. Submitting a spec whose
// hash is already live returns the existing job (singleflight); a spec
// whose result is cached returns an already-completed job. ErrQueueFull
// and ErrDraining report backpressure and shutdown.
func (e *Engine) Submit(sp Spec) (*Job, error) {
	sp = sp.Normalized()
	hash := sp.hash()

	// Singleflight applies to LIVE jobs only: a spec whose job is
	// queued or running joins it. Terminal jobs fall through — a Done
	// job's result is in the cache (the probe below serves it and
	// counts a cache hit), and Failed/Canceled jobs are retried.
	e.mu.Lock()
	draining := e.draining
	j := e.jobs[hash]
	live := j != nil && !j.state.Terminal()
	e.mu.Unlock()
	if draining {
		return nil, ErrDraining
	}
	if live {
		e.cDedup.Add(1)
		return j, nil
	}

	// Probe the cache OUTSIDE the engine lock: a disk-backed cache does
	// file I/O here, which must not serialize every other Submit. The
	// job shares the cache's bytes; Result copies them.
	if v, ok := e.cache.shared(hash); ok {
		// Served entirely from the cache: the job is born terminal and
		// is deliberately NOT entered into the index — indexing it
		// would grow e.jobs by one entry per distinct warm spec, and
		// every read for it can be answered from the cache again. No
		// other goroutine can see it yet, so it needs no lock.
		j = e.newJob(sp, hash)
		j.cached = true
		j.finish(Done, v, nil)
		e.cCacheHits.Add(1)
		return j, nil
	}
	return e.enqueue(sp, hash)
}

func (e *Engine) newJob(sp Spec, hash string) *Job {
	return &Job{Spec: sp, Hash: hash, e: e, done: make(chan struct{})}
}

// enqueue indexes and queues a new job for a spec the cache missed.
func (e *Engine) enqueue(sp Spec, hash string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return nil, ErrDraining
	}
	// Re-check after the unlocked probe: a concurrent Submit of the
	// same spec may have registered the job meanwhile (singleflight),
	// and that job may even have finished since the probe missed.
	if j, ok := e.jobs[hash]; ok && j.state != Failed && j.state != Canceled {
		e.cDedup.Add(1)
		return j, nil
	}
	j := e.newJob(sp, hash)
	select {
	case e.queue <- j:
	default:
		e.cRejected.Add(1)
		return nil, ErrQueueFull
	}
	e.jobs[hash] = j
	e.cSubmitted.Add(1)
	return j, nil
}

// Job returns the job for a hash, live or completed.
func (e *Engine) Job(hash string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[hash]
	return j, ok
}

// Run is Submit plus Wait: the synchronous client call for one spec —
// with a warm cache it returns in microseconds. Many specs go through
// Batch.
func (e *Engine) Run(ctx context.Context, sp Spec) ([]byte, error) {
	j, err := e.Submit(sp)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// maxCellsInFlight bounds how many of one batch's cells are submitted
// ahead of the cell being reported, so one large batch cannot fill the
// whole job queue; batchBackoff is the pause before resubmitting when
// the queue is full and none of the batch's own cells is in flight.
const (
	maxCellsInFlight = 16
	batchBackoff     = 50 * time.Millisecond
)

// Batch runs cells and calls report once per cell, in order, with the
// cell's job (nil when Submit refused it) and its result bytes or
// error. At most maxCellsInFlight cells are submitted ahead of the one
// being reported. A full queue waits for the batch's oldest in-flight
// cell, or, with none in flight, backs off and resubmits. Batch stops
// at the first error report returns and returns it, or returns
// ctx.Err() once ctx ends. Cells already submitted keep running either
// way, so repeating the batch joins them instead of simulating twice.
//
// POST /sweeps, hscsweep and hscfig all run their cells through here.
func (e *Engine) Batch(ctx context.Context, cells []Spec, report func(i int, j *Job, out []byte, err error) error) error {
	jobs := make([]*Job, len(cells))
	errs := make([]error, len(cells))
	next := 0 // cells [i, next) are in flight
	for i := range cells {
		for next < len(cells) && next-i < maxCellsInFlight {
			j, err := e.Submit(cells[next])
			if errors.Is(err, ErrQueueFull) {
				if next > i {
					break // the oldest in-flight cell frees a slot first
				}
				select {
				case <-time.After(batchBackoff):
					continue
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			jobs[next], errs[next] = j, err
			next++
		}

		j, out, err := jobs[i], []byte(nil), errs[i]
		if j != nil {
			out, err = j.Wait(ctx)
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		jobs[i] = nil
		if err := report(i, j, out, err); err != nil {
			return err
		}
	}
	return nil
}

// Drain performs a graceful shutdown: Submit starts failing with
// ErrDraining, queued jobs complete immediately with ErrCanceled, and
// Drain returns once every in-flight job has finished naturally (or
// ctx expires — the pool keeps draining in the background either way).
func (e *Engine) Drain(ctx context.Context) error {
	e.stopAdmission()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stopAdmission sets the drain flag, closes the queue and cancels every
// job still in it; workers cancel any job they dequeue after this.
func (e *Engine) stopAdmission() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return
	}
	e.draining = true
	close(e.queue)
	// The queue is closed, so this receive never blocks: the loop ends
	// once the workers and it have emptied the buffer.
	for j := range e.queue {
		j.finish(Canceled, nil, ErrCanceled)
		e.cCanceled.Add(1)
	}
}

// Close shuts down immediately: like Drain but in-flight jobs are
// cancelled too. It blocks until the pool exits.
func (e *Engine) Close() {
	e.baseCancel()
	e.stopAdmission()
	e.wg.Wait()
}

// EngineStats is a point-in-time view for /metrics and CLI summaries.
type EngineStats struct {
	Submitted  uint64     `json:"submitted"`
	DedupHits  uint64     `json:"dedupHits"`
	CacheHits  uint64     `json:"cacheHits"`
	Done       uint64     `json:"done"`
	Failed     uint64     `json:"failed"`
	Canceled   uint64     `json:"canceled"`
	TimedOut   uint64     `json:"timedOut"`
	Rejected   uint64     `json:"rejected"`
	Evicted    uint64     `json:"evicted"`
	QueueDepth int        `json:"queueDepth"`
	Running    int        `json:"running"`
	Jobs       int        `json:"jobs"`
	Cache      CacheStats `json:"cache"`
}

// Stats snapshots the engine.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	running, jobs := e.running, len(e.jobs)
	e.mu.Unlock()
	return EngineStats{
		Submitted:  e.cSubmitted.Load(),
		DedupHits:  e.cDedup.Load(),
		CacheHits:  e.cCacheHits.Load(),
		Done:       e.cDone.Load(),
		Failed:     e.cFailed.Load(),
		Canceled:   e.cCanceled.Load(),
		TimedOut:   e.cTimeouts.Load(),
		Rejected:   e.cRejected.Load(),
		Evicted:    e.cEvicted.Load(),
		QueueDepth: len(e.queue),
		Running:    running,
		Jobs:       jobs,
		Cache:      e.cache.Stats(),
	}
}

// cancelJob completes a queued job with ErrCanceled and returns nil,
// or returns a running job's cancel func for the caller to call.
func (e *Engine) cancelJob(j *Job) context.CancelFunc {
	e.mu.Lock()
	defer e.mu.Unlock()
	if j.state == Queued {
		j.finish(Canceled, nil, ErrCanceled)
	}
	return j.cancel
}

// start moves a dequeued job to Running and installs its cancel func.
// It fails for a job cancelled while queued, and cancels a job
// dequeued after the drain began.
func (e *Engine) start(j *Job, cancel context.CancelFunc) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		j.finish(Canceled, nil, ErrCanceled)
	}
	if j.state != Queued {
		return false
	}
	j.state = Running
	j.cancel = cancel
	e.running++
	return true
}

// complete publishes a run's outcome and enters the job into the
// bounded retention FIFO, dropping index entries past the cap. Recently
// finished jobs stay visible to GET /jobs/{hash} (state, Cached flag,
// error detail); older ones are served from the result cache instead.
// A hash whose index slot has since been replaced by a newer, still-live
// job is left alone.
func (e *Engine) complete(j *Job, st JobState, result []byte, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.running--
	j.finish(st, result, err)
	e.retired = append(e.retired, j.Hash)
	for len(e.retired) > e.retain {
		old := e.retired[0]
		e.retired = e.retired[1:]
		if oj, ok := e.jobs[old]; ok && oj.state.Terminal() {
			delete(e.jobs, old)
			e.cEvicted.Add(1)
		}
	}
}

// worker executes jobs until the queue closes. Without a configured
// Exec it runs every job on one system.Runner, which keeps the last
// job's system for the next while more jobs wait in the queue. Once
// the queue is empty the worker closes the runner, stopping that
// system's coroutines, so an idle worker holds no system.
func (e *Engine) worker() {
	defer e.wg.Done()
	exec, idle := e.exec, func() {}
	if exec == nil {
		var r system.Runner
		defer r.Close()
		exec = func(ctx context.Context, sp Spec) ([]byte, error) { return execute(ctx, &r, sp) }
		idle = r.Close
	}
	for j := range e.queue {
		e.runJob(j, exec)
		if len(e.queue) == 0 {
			idle()
		}
	}
}

// PanicError fails a job whose executor panicked. A workload program's
// panic surfaces from the simulator on the worker goroutine; the engine
// fails that job with the panic value and keeps serving.
type PanicError struct {
	Spec  Spec
	Value any
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: job %s panicked: %v", p.Spec, p.Value)
}

// execRecovered runs exec, turning a panic into a *PanicError.
func execRecovered(ctx context.Context, exec func(context.Context, Spec) ([]byte, error), sp Spec) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, &PanicError{Spec: sp, Value: r}
		}
	}()
	return exec(ctx, sp)
}

// runJob executes one job on exec with timeout and cancellation,
// classifies the outcome, and memoizes successes.
func (e *Engine) runJob(j *Job, exec func(context.Context, Spec) ([]byte, error)) {
	// Exactly one context per job, cancelled on return: a second,
	// overwritten one would stay registered on e.baseCtx until Close.
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if e.timeout > 0 {
		ctx, cancel = context.WithTimeout(e.baseCtx, e.timeout)
	} else {
		ctx, cancel = context.WithCancel(e.baseCtx)
	}
	defer cancel()
	if !e.start(j, cancel) {
		// Cancelled while queued, or dequeued after the drain began.
		e.cCanceled.Add(1)
		return
	}

	result, err := execRecovered(ctx, exec, j.Spec)

	// Counters are bumped before the job is published, so a waiter that
	// wakes on Done reads Stats that already count its job.
	if err == nil {
		// Memoize before publishing Done: a waiter that sees the result
		// and resubmits the spec (a re-POSTed sweep) must hit the
		// cache, not re-execute. Only a fully successful run ever
		// reaches Put, and Put's disk write is atomic, so a cancelled
		// or failed writer cannot corrupt the cache. A failed
		// memoization write loses only future speedups.
		_ = e.cache.Put(j.Hash, result)
		e.cDone.Add(1)
		e.complete(j, Done, result, nil)
		return
	}
	st := Failed
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		err = fmt.Errorf("engine: job %s timed out after %v: %w", j.Spec, e.timeout, err)
		e.cTimeouts.Add(1)
		e.cFailed.Add(1)
	case errors.Is(err, context.Canceled):
		st, err = Canceled, fmt.Errorf("%w: %v", ErrCanceled, err)
		e.cCanceled.Add(1)
	default:
		e.cFailed.Add(1)
	}
	// Failed and cancelled jobs have no cached result to fall back on,
	// but they still go through the retention FIFO: an error is worth
	// keeping around for recent polls, not forever.
	e.complete(j, st, nil, err)
}
