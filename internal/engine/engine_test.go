package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// smallSpec is a cheap real-simulator job used by end-to-end tests.
func smallSpec() Spec {
	return Spec{Bench: "bs", Scale: 1, Threads: 2, Config: ConfigEval}
}

// blockingExec is a stub executor whose jobs park until released,
// giving shutdown tests deterministic control over job lifetimes.
type blockingExec struct {
	started chan string   // receives a spec's Bench when its job starts
	release chan struct{} // close to let parked jobs finish
}

func newBlockingExec() *blockingExec {
	return &blockingExec{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingExec) exec(ctx context.Context, sp Spec) ([]byte, error) {
	b.started <- sp.Bench
	select {
	case <-b.release:
		return []byte(`{"bench":"` + sp.Bench + `"}`), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestCachedResultByteIdentical is the subsystem's core guarantee: a
// spec re-run through a warm cache returns bytes identical to the cold
// run, and an independent cold run on a fresh engine produces the same
// bytes (determinism, which is what makes memoization sound).
func TestCachedResultByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := smallSpec()
	ctx := context.Background()

	e1 := New(Config{Workers: 2, Cache: cache})
	cold, err := e1.Run(ctx, sp)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	e1.Close()

	// Same cache, new engine: served from memory/disk without running.
	e2 := New(Config{Workers: 2, Cache: cache})
	j, err := e2.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if !j.Cached() {
		t.Fatal("warm run was not served from cache")
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached result differs from cold run:\ncold: %s\nwarm: %s", cold, warm)
	}
	e2.Close()

	// Fresh engine, fresh cache: an independent simulation of the same
	// spec must reproduce the exact bytes.
	e3 := New(Config{Workers: 2})
	fresh, err := e3.Run(ctx, sp)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if !bytes.Equal(cold, fresh) {
		t.Fatal("independent run of the same spec produced different bytes; simulator is not deterministic")
	}
	e3.Close()

	res, err := DecodeResult(cold)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("decoded result has zero cycles")
	}
}

func TestSingleflightDedup(t *testing.T) {
	bx := newBlockingExec()
	e := New(Config{Workers: 2, Exec: bx.exec})
	defer e.Close()

	sp := Spec{Bench: "stub"}
	j1, err := e.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := e.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("second submit of a live spec returned a different job")
	}
	if st := e.Stats(); st.DedupHits != 1 || st.Submitted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	close(bx.release)
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCompletedJobServedFromCacheOnResubmit(t *testing.T) {
	bx := newBlockingExec()
	close(bx.release) // jobs complete immediately
	e := New(Config{Workers: 1, Exec: bx.exec})
	defer e.Close()

	sp := Spec{Bench: "stub"}
	ctx := context.Background()
	first, err := e.Run(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	// Resubmitting a completed spec is served through the cache probe
	// (terminal jobs don't dedup); a second engine sharing the cache
	// gets the same cache hit.
	if _, err := e.Run(ctx, sp); err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{Workers: 1, Cache: e.Cache(), Exec: bx.exec})
	defer e2.Close()
	j, err := e2.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Cached() || !bytes.Equal(first, warm) {
		t.Fatalf("cached=%v, bytes equal=%v", j.Cached(), bytes.Equal(first, warm))
	}
	if st := e2.Stats(); st.CacheHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueFullRejects(t *testing.T) {
	bx := newBlockingExec()
	e := New(Config{Workers: 1, QueueDepth: 1, Exec: bx.exec})
	defer e.Close()

	if _, err := e.Submit(Spec{Bench: "a"}); err != nil {
		t.Fatal(err)
	}
	<-bx.started // worker is now parked inside job a; queue is empty
	if _, err := e.Submit(Spec{Bench: "b"}); err != nil {
		t.Fatal(err)
	}
	_, err := e.Submit(Spec{Bench: "c"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := e.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
	close(bx.release)
}

// TestDrainGraceful covers the shutdown contract: in-flight jobs run to
// completion (and are memoized), queued jobs complete immediately with
// the typed ErrCanceled, and new submits are refused.
func TestDrainGraceful(t *testing.T) {
	bx := newBlockingExec()
	e := New(Config{Workers: 1, Exec: bx.exec})

	inflight, err := e.Submit(Spec{Bench: "inflight"})
	if err != nil {
		t.Fatal(err)
	}
	<-bx.started // the one worker is parked inside "inflight"
	queued, err := e.Submit(Spec{Bench: "queued"})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- e.Drain(context.Background()) }()

	// The queued job is cancelled promptly, while "inflight" still runs.
	if _, err := queued.Wait(context.Background()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("queued job err = %v, want ErrCanceled", err)
	}
	if st := queued.State(); st != Canceled {
		t.Fatalf("queued job state = %v, want Canceled", st)
	}
	if st := inflight.State(); st != Running {
		t.Fatalf("in-flight job state = %v, want Running", st)
	}
	if _, err := e.Submit(Spec{Bench: "late"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining err = %v, want ErrDraining", err)
	}

	close(bx.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	b, err := inflight.Result()
	if err != nil || len(b) == 0 {
		t.Fatalf("in-flight job after drain: %q, %v", b, err)
	}

	// The cache holds exactly the completed job — the cancelled one
	// never touched it.
	if _, ok := e.Cache().Get(inflight.Hash); !ok {
		t.Fatal("completed job missing from cache")
	}
	if _, ok := e.Cache().Get(queued.Hash); ok {
		t.Fatal("cancelled job leaked into the cache")
	}
	if st := e.Stats(); st.Done != 1 || st.Canceled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCloseStopsEngineGoroutines: Close, and Drain once the jobs are
// released, return promptly and end every goroutine the engine started
// (its workers and Drain's waiter).
func TestCloseStopsEngineGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*testing.T, *Engine, *blockingExec)
	}{
		{"Close", func(_ *testing.T, e *Engine, _ *blockingExec) { e.Close() }},
		{"Drain", func(t *testing.T, e *Engine, bx *blockingExec) {
			close(bx.release)
			if err := e.Drain(context.Background()); err != nil {
				t.Errorf("Drain: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			bx := newBlockingExec()
			e := New(Config{Workers: 3, Exec: bx.exec})
			for i := 0; i < 8; i++ {
				if _, err := e.Submit(Spec{Bench: fmt.Sprintf("job-%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				<-bx.started // every worker is parked in the executor
			}
			stopped := make(chan struct{})
			go func() {
				tc.stop(t, e, bx)
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s did not return within 2 s", tc.name)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines 2 s after %s, %d before New", runtime.NumGoroutine(), tc.name, before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestJobTimeout(t *testing.T) {
	bx := newBlockingExec() // never released: jobs end only via ctx
	e := New(Config{Workers: 1, JobTimeout: 20 * time.Millisecond, Exec: bx.exec})
	defer e.Close()

	j, err := e.Submit(Spec{Bench: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.Wait(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if st := j.State(); st != Failed {
		t.Fatalf("state = %v, want Failed", st)
	}
	if st := e.Stats(); st.TimedOut != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCancelRunning also checks the cache-corruption guard: a job
// cancelled mid-run must leave no cache entry behind.
func TestCancelRunning(t *testing.T) {
	bx := newBlockingExec()
	e := New(Config{Workers: 1, Exec: bx.exec})
	defer e.Close()

	j, err := e.Submit(Spec{Bench: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	<-bx.started
	j.Cancel()
	if _, err := j.Wait(context.Background()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if st := j.State(); st != Canceled {
		t.Fatalf("state = %v, want Canceled", st)
	}
	if _, ok := e.Cache().Get(j.Hash); ok {
		t.Fatal("cancelled job wrote to the cache")
	}
	if n := e.Cache().Len(); n != 0 {
		t.Fatalf("cache has %d entries after cancelled run", n)
	}
}

func TestCancelQueued(t *testing.T) {
	bx := newBlockingExec()
	e := New(Config{Workers: 1, Exec: bx.exec})

	if _, err := e.Submit(Spec{Bench: "blocker"}); err != nil {
		t.Fatal(err)
	}
	<-bx.started
	j, err := e.Submit(Spec{Bench: "queued"})
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	// Cancelling a queued job completes it immediately, before any
	// worker touches it.
	select {
	case <-j.Done():
	default:
		t.Fatal("cancelled queued job not immediately terminal")
	}
	if _, err := j.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	close(bx.release)
	e.Close()
	if _, ok := e.Cache().Get(j.Hash); ok {
		t.Fatal("cancelled job wrote to the cache")
	}
}

// TestFailedJobIsRetried: failure is not memoized — not in the cache,
// and not in the singleflight map — so a resubmit runs again.
func TestFailedJobIsRetried(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	exec := func(ctx context.Context, sp Spec) ([]byte, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, fmt.Errorf("transient fault")
		}
		return []byte(`{"ok":true}`), nil
	}
	e := New(Config{Workers: 1, Exec: exec})
	defer e.Close()

	ctx := context.Background()
	sp := Spec{Bench: "flaky"}
	if _, err := e.Run(ctx, sp); err == nil {
		t.Fatal("first run should fail")
	}
	b, err := e.Run(ctx, sp)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if string(b) != `{"ok":true}` {
		t.Fatalf("retry result = %s", b)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("exec called %d times, want 2", calls)
	}
}

// TestPanickingJobFails: an executor panic (a workload program's panic
// surfaces from the simulator on the worker goroutine) fails that job
// with the panic value; the worker, the running count and the next job
// are unaffected.
func TestPanickingJobFails(t *testing.T) {
	e := New(Config{Workers: 1, Exec: func(ctx context.Context, sp Spec) ([]byte, error) {
		if sp.Bench == "bad" {
			panic("workload bug")
		}
		return []byte(`{"ok":true}`), nil
	}})
	defer e.Close()
	ctx := context.Background()

	j, err := e.Submit(Spec{Bench: "bad"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.Wait(ctx)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "workload bug" {
		t.Fatalf("err = %v, want a *PanicError carrying the panic value", err)
	}
	if j.State() != Failed {
		t.Fatalf("state = %s, want failed", j.State())
	}
	b, err := e.Run(ctx, Spec{Bench: "good"})
	if err != nil || string(b) != `{"ok":true}` {
		t.Fatalf("next job: %s, %v", b, err)
	}
	if st := e.Stats(); st.Failed != 1 || st.Done != 1 || st.Running != 0 {
		t.Fatalf("stats = %+v, want 1 failed, 1 done, 0 running", st)
	}
}

// TestExecuteInterruptedByCancel drives the real simulator with an
// already-cancelled context: the interrupt wiring must stop the run and
// surface the context's error.
func TestExecuteInterruptedByCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Execute(ctx, smallSpec())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	bx := newBlockingExec()
	close(bx.release)
	e := New(Config{Workers: 4, QueueDepth: 256, Exec: bx.exec})
	defer e.Close()

	const goroutines, specs = 8, 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < specs; i++ {
				j, err := e.Submit(Spec{Bench: fmt.Sprintf("s%d", i)})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := j.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if st.Done != specs {
		t.Fatalf("done = %d, want %d", st.Done, specs)
	}
	if st.Submitted+st.DedupHits+st.CacheHits != goroutines*specs {
		t.Fatalf("submit paths don't add up: %+v", st)
	}
}

// TestJobIndexBoundedUnderChurn is the unbounded-growth regression
// test: churn many distinct specs through a small-retention engine and
// require the in-memory job index to stay bounded while every evicted
// job's result remains readable through the cache.
func TestJobIndexBoundedUnderChurn(t *testing.T) {
	e := New(Config{Workers: 2, RetainJobs: 8, Exec: func(ctx context.Context, sp Spec) ([]byte, error) {
		return []byte(`{"bench":"` + sp.Bench + `"}`), nil
	}})
	defer e.Close()

	const churn = 100
	ctx := context.Background()
	hashes := make([]string, 0, churn)
	for i := 0; i < churn; i++ {
		sp := Spec{Bench: fmt.Sprintf("churn-%d", i)}
		if _, err := e.Run(ctx, sp); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, sp.Normalized().Hash())
	}

	st := e.Stats()
	if st.Jobs > 8+2 { // retention cap plus in-flight slack
		t.Fatalf("job index grew to %d entries under churn (retain=8)", st.Jobs)
	}
	if st.Evicted == 0 {
		t.Fatal("no jobs were evicted")
	}
	// Every result — including long-evicted ones — is still served.
	for i, h := range hashes {
		b, ok := e.CachedResult(h)
		if !ok {
			t.Fatalf("result %d (hash %s) lost after eviction", i, h[:12])
		}
		want := fmt.Sprintf(`{"bench":"churn-%d"}`, i)
		if string(b) != want {
			t.Fatalf("result %d = %s, want %s", i, b, want)
		}
	}
	// Resubmitting an evicted spec is a cache hit, not a re-run.
	pre := e.Stats().Done
	j, err := e.Submit(Spec{Bench: "churn-0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !j.Cached() {
		t.Fatal("evicted spec re-simulated instead of cache hit")
	}
	if e.Stats().Done != pre {
		t.Fatal("evicted spec re-executed")
	}
}

// TestFailedJobsAlsoRetired: failure churn must not grow the index
// either, even though failures have no cached result to fall back on.
func TestFailedJobsAlsoRetired(t *testing.T) {
	e := New(Config{Workers: 2, RetainJobs: 4, Exec: func(ctx context.Context, sp Spec) ([]byte, error) {
		return nil, errors.New("boom")
	}})
	defer e.Close()
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		j, err := e.Submit(Spec{Bench: fmt.Sprintf("fail-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err == nil {
			t.Fatal("expected failure")
		}
	}
	if st := e.Stats(); st.Jobs > 4+2 {
		t.Fatalf("failed-job churn grew the index to %d (retain=4)", st.Jobs)
	}
}

// TestJobTimeoutLeavesNoContextPerJob: with JobTimeout set, a finished
// job must leave nothing registered on the engine's base context. The
// heap that survives GC across 20 000 failing stub jobs may grow no
// faster than it does without a timeout; a cancel func dropped per job
// kept about 124 B each until Close.
func TestJobTimeoutLeavesNoContextPerJob(t *testing.T) {
	const jobs = 20000
	heapPerJob := func(timeout time.Duration) float64 {
		e := New(Config{Workers: 1, RetainJobs: 1, JobTimeout: timeout,
			Exec: func(context.Context, Spec) ([]byte, error) { return nil, errors.New("stub failure") }})
		defer e.Close()
		run := func(from, n int) {
			for i := from; i < from+n; i++ {
				j, err := e.Submit(Spec{Bench: fmt.Sprintf("leak-%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				j.Wait(context.Background())
			}
		}
		heap := func() uint64 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		run(0, 1000) // the index and the retention FIFO reach steady state
		before := heap()
		run(1000, jobs)
		return (float64(heap()) - float64(before)) / jobs
	}
	untimed := heapPerJob(0)
	timed := heapPerJob(time.Hour)
	if timed-untimed > 32 {
		t.Fatalf("heap grew %.1f B/job with JobTimeout 1h against %.1f B/job without: jobs leak their contexts",
			timed, untimed)
	}
}
