package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hscsim/internal/stats"
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

	mu     sync.Mutex //lockcheck:fast
	state  JobState
	cached bool
	result []byte
	err    error
	cancel context.CancelFunc // non-nil while running
	done   chan struct{}
}

func newJob(sp Spec, hash string) *Job {
	return &Job{Spec: sp, Hash: hash, done: make(chan struct{})}
}

// State returns the job's current lifecycle state.
//
//lockcheck:neutral
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cached reports whether the result was served from the cache rather
// than computed by this job.
//
//lockcheck:neutral
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// Done is closed when the job reaches a terminal state.
//
//lockcheck:neutral
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the canonical result bytes or the job's error. It
// must be called after Done is closed (Wait does both).
//
//lockcheck:neutral
func (j *Job) Result() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, fmt.Errorf("engine: job %s still %s", j.Hash[:12], j.state)
	}
	return cloneBytes(j.result), j.err
}

// Wait blocks until the job completes or ctx expires.
//
//lockcheck:blocks
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
//
//lockcheck:neutral
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state == Queued {
		j.finishLocked(nil, ErrCanceled, Canceled)
		j.mu.Unlock()
		return
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// finishLocked transitions to a terminal state. Caller holds j.mu.
func (j *Job) finishLocked(result []byte, err error, st JobState) {
	if j.state.Terminal() {
		return
	}
	j.state = st
	j.result = result
	j.err = err
	j.cancel = nil
	close(j.done)
}

// tryStart transitions Queued→Running and installs the cancel func;
// it fails when the job was cancelled while queued.
func (j *Job) tryStart(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Queued {
		return false
	}
	j.state = Running
	j.cancel = cancel
	return true
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
	// Registry receives the engine's counters under the "engine" scope
	// (nil = a private registry). Safe for concurrent snapshots.
	Registry *stats.Registry
	// Exec executes one spec (nil = Execute, the real simulator).
	// Tests substitute stubs to exercise scheduling and shutdown.
	Exec func(context.Context, Spec) ([]byte, error)
}

// Engine is the concurrent simulation-job engine: a bounded worker
// pool with singleflight dedup in front of a content-addressed result
// cache.
// The engine tier's lock order, enforced by the lockcheck analyzer:
// the engine index lock may be held while taking a job's lock (Submit
// consults j.State() under e.mu), never the reverse.
//
//lockcheck:order engine.Engine.mu < engine.Job.mu

type Engine struct {
	exec     func(context.Context, Spec) ([]byte, error)
	cache    *Cache
	timeout  time.Duration
	registry *stats.Registry
	retain   int

	cSubmitted, cDedup, cCacheHits       *stats.Counter
	cDone, cFailed, cCanceled, cTimeouts *stats.Counter
	cRejected, cEvicted                  *stats.Counter

	queue chan *Job
	wg    sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex //lockcheck:fast
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
	reg := cfg.Registry
	if reg == nil {
		reg = stats.NewRegistry()
	}
	exec := cfg.Exec
	if exec == nil {
		exec = Execute
	}
	ctx, cancel := context.WithCancel(context.Background())
	sc := reg.Scope("engine")
	e := &Engine{
		exec:       exec,
		cache:      cache,
		timeout:    cfg.JobTimeout,
		registry:   reg,
		retain:     retain,
		cSubmitted: sc.Counter("jobs_submitted"),
		cDedup:     sc.Counter("dedup_hits"),
		cCacheHits: sc.Counter("cache_hits"),
		cDone:      sc.Counter("jobs_done"),
		cFailed:    sc.Counter("jobs_failed"),
		cCanceled:  sc.Counter("jobs_canceled"),
		cTimeouts:  sc.Counter("jobs_timed_out"),
		cRejected:  sc.Counter("queue_rejects"),
		cEvicted:   sc.Counter("jobs_evicted"),
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

// Registry exposes the engine's stats registry (the "engine" scope
// plus whatever the caller shares it with).
//
//lockcheck:neutral
func (e *Engine) Registry() *stats.Registry { return e.registry }

// Cache exposes the engine's result cache.
//
//lockcheck:neutral
func (e *Engine) Cache() *Cache { return e.cache }

// CachedResult looks a hash up in the result cache directly. It is how
// the HTTP service keeps GET /jobs/{hash}/result working for jobs that
// have been retired from the in-memory index: the job object is gone,
// but the content-addressed result is forever.
//
//lockcheck:blocks
func (e *Engine) CachedResult(hash string) ([]byte, bool) {
	return e.cache.Get(hash)
}

// Submit enqueues a spec and returns its job. Submitting a spec whose
// hash is already live returns the existing job (singleflight); a spec
// whose result is cached returns an already-completed job. ErrQueueFull
// and ErrDraining report backpressure and shutdown.
//
//lockcheck:blocks
func (e *Engine) Submit(sp Spec) (*Job, error) {
	sp = sp.Normalized()
	hash := sp.Hash()

	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	// Singleflight applies to LIVE jobs only: a spec whose job is
	// queued or running joins it. Terminal jobs fall through — a Done
	// job's result is in the cache (the probe below serves it and
	// counts a cache hit), and Failed/Canceled jobs are retried.
	if j, ok := e.jobs[hash]; ok && !j.State().Terminal() {
		e.cDedup.Inc()
		e.mu.Unlock()
		return j, nil
	}
	e.mu.Unlock()

	// Probe the cache OUTSIDE the engine lock: a disk-backed cache does
	// file I/O here, which must not serialize every other Submit.
	if v, ok := e.cache.Get(hash); ok {
		// Served entirely from the cache: the job is born terminal and
		// is deliberately NOT entered into the index — indexing it
		// would grow e.jobs by one entry per distinct warm spec, and
		// every read for it can be answered from the cache again.
		j := newJob(sp, hash)
		j.mu.Lock()
		j.cached = true
		j.finishLocked(v, nil, Done)
		j.mu.Unlock()
		e.cCacheHits.Inc()
		return j, nil
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return nil, ErrDraining
	}
	// Re-check after the unlocked probe: a concurrent Submit of the
	// same spec may have registered the job meanwhile (singleflight),
	// and that job may even have finished since the probe missed.
	if j, ok := e.jobs[hash]; ok {
		if st := j.State(); st != Failed && st != Canceled {
			e.cDedup.Inc()
			return j, nil
		}
	}
	j := newJob(sp, hash)
	select {
	case e.queue <- j:
	default:
		e.cRejected.Inc()
		return nil, ErrQueueFull
	}
	e.jobs[hash] = j
	e.cSubmitted.Inc()
	return j, nil
}

// Job returns the job for a hash, live or completed.
//
//lockcheck:neutral
func (e *Engine) Job(hash string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[hash]
	return j, ok
}

// Run is Submit plus Wait: the synchronous client call. Library
// clients (cmd/hscsweep, cmd/hscfig, the benchmark harness) use this —
// with a warm cache it returns in microseconds.
//
//lockcheck:blocks
func (e *Engine) Run(ctx context.Context, sp Spec) ([]byte, error) {
	j, err := e.Submit(sp)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// RunResults is Run with the canonical encoding decoded back into
// system.Results.
//
//lockcheck:blocks
func (e *Engine) RunResults(ctx context.Context, sp Spec) (system.Results, error) {
	b, err := e.Run(ctx, sp)
	if err != nil {
		return system.Results{}, err
	}
	return DecodeResult(b)
}

// Drain performs a graceful shutdown: Submit starts failing with
// ErrDraining, queued jobs complete immediately with ErrCanceled, and
// Drain returns once every in-flight job has finished naturally (or
// ctx expires — the pool keeps draining in the background either way).
//
//lockcheck:blocks
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.queue)
		// Cancel everything still queued; workers skip cancelled jobs.
	flush:
		for {
			select {
			case j, ok := <-e.queue:
				if !ok || j == nil {
					break flush
				}
				j.Cancel()
				e.cCanceled.Inc()
			default:
				break flush
			}
		}
	}
	e.mu.Unlock()

	done := make(chan struct{})
	//lockcheck:spawn drain waiter — exits as soon as the worker pool does
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

// Close shuts down immediately: like Drain but in-flight jobs are
// cancelled too. It blocks until the pool exits.
//
//lockcheck:blocks
func (e *Engine) Close() {
	e.baseCancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // Drain should not block beyond the wg wait below.
	_ = e.Drain(ctx)
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
//
//lockcheck:neutral
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	running, jobs := e.running, len(e.jobs)
	e.mu.Unlock()
	return EngineStats{
		Submitted:  e.cSubmitted.Value(),
		DedupHits:  e.cDedup.Value(),
		CacheHits:  e.cCacheHits.Value(),
		Done:       e.cDone.Value(),
		Failed:     e.cFailed.Value(),
		Canceled:   e.cCanceled.Value(),
		TimedOut:   e.cTimeouts.Value(),
		Rejected:   e.cRejected.Value(),
		Evicted:    e.cEvicted.Value(),
		QueueDepth: len(e.queue),
		Running:    running,
		Jobs:       jobs,
		Cache:      e.cache.Stats(),
	}
}

// retire enters a terminal job's hash into the bounded retention FIFO
// and drops index entries past the cap. Recently finished jobs stay
// visible to GET /jobs/{hash} (state, Cached flag, error detail);
// older ones are served from the result cache instead. A hash whose
// index slot has since been replaced by a newer, still-live job is
// left alone.
func (e *Engine) retire(hash string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.retired = append(e.retired, hash)
	for len(e.retired) > e.retain {
		old := e.retired[0]
		e.retired = e.retired[1:]
		if j, ok := e.jobs[old]; ok && j.State().Terminal() {
			delete(e.jobs, old)
			e.cEvicted.Inc()
		}
	}
}

// worker executes jobs until the queue closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.runJob(j)
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

// execRecovered runs the executor, turning a panic into a *PanicError.
func (e *Engine) execRecovered(ctx context.Context, sp Spec) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, &PanicError{Spec: sp, Value: r}
		}
	}()
	return e.exec(ctx, sp)
}

// runJob executes one job with timeout and cancellation, classifies
// the outcome, and memoizes successes.
func (e *Engine) runJob(j *Job) {
	e.mu.Lock()
	draining := e.draining
	e.mu.Unlock()
	if draining {
		// Queued when the drain began: cancel, don't execute.
		j.mu.Lock()
		j.finishLocked(nil, ErrCanceled, Canceled)
		j.mu.Unlock()
		e.cCanceled.Inc()
		return
	}

	ctx, cancel := context.WithCancel(e.baseCtx)
	if e.timeout > 0 {
		ctx, cancel = context.WithTimeout(e.baseCtx, e.timeout)
	}
	defer cancel()
	if !j.tryStart(cancel) {
		// Cancelled while queued.
		e.cCanceled.Inc()
		return
	}
	e.mu.Lock()
	e.running++
	e.mu.Unlock()

	result, err := e.execRecovered(ctx, j.Spec)

	e.mu.Lock()
	e.running--
	e.mu.Unlock()

	if err == nil {
		// Memoize before publishing Done, outside the job lock: a
		// waiter that sees the result and resubmits the spec (a
		// re-POSTed sweep) must hit the cache, not re-execute. Only a
		// fully successful run ever reaches Put, and Put's disk write is
		// atomic, so a cancelled or failed writer cannot corrupt the
		// cache. A failed memoization write loses only future speedups.
		_ = e.cache.Put(j.Hash, result)
	}
	j.mu.Lock()
	switch {
	case err == nil:
		j.finishLocked(result, nil, Done)
		j.mu.Unlock()
		e.cDone.Inc()
		e.retire(j.Hash)
		return
	case errors.Is(err, context.DeadlineExceeded):
		j.finishLocked(nil, fmt.Errorf("engine: job %s timed out after %v: %w", j.Spec, e.timeout, err), Failed)
		e.cTimeouts.Inc()
		e.cFailed.Inc()
	case errors.Is(err, context.Canceled):
		j.finishLocked(nil, fmt.Errorf("%w: %v", ErrCanceled, err), Canceled)
		e.cCanceled.Inc()
	default:
		j.finishLocked(nil, err, Failed)
		e.cFailed.Inc()
	}
	j.mu.Unlock()
	// Failed and cancelled jobs have no cached result to fall back on,
	// but they still go through the retention FIFO: an error is worth
	// keeping around for recent polls, not forever.
	e.retire(j.Hash)
}
