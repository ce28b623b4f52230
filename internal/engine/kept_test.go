package engine

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hscsim/internal/chai"
	"hscsim/internal/heterosync"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// freshResults executes every spec on a fresh system (Execute), two at
// a time, and returns the result bytes by spec.
func freshResults(t *testing.T, specs []Spec) map[Spec][]byte {
	t.Helper()
	out := make(map[Spec][]byte, len(specs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan Spec)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range next {
				b, err := Execute(context.Background(), sp)
				if err != nil {
					t.Errorf("%s: %v", sp, err)
				}
				mu.Lock()
				out[sp] = b
				mu.Unlock()
			}
		}()
	}
	for _, sp := range specs {
		next <- sp
	}
	close(next)
	wg.Wait()
	return out
}

// TestKeptSystemMatchesFresh runs every CHAI and HeteroSync bench under
// the eight named variants at scale 1 on one runner, in a seeded
// shuffled order, interleaved with a topology change that forces a
// rebuild, a run that MaxTicks aborts and a workload that panics. Every
// result must be the bytes a fresh system produces, and each kept run
// ends with its coherence sweep.
func TestKeptSystemMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("304 CHAI and HeteroSync runs; skipped in -short")
	}
	var specs []Spec
	benches := slices.Concat(chai.Names(), chai.ExtendedNames(), heterosync.Names())
	for _, b := range benches {
		for _, o := range namedVariants {
			specs = append(specs, Spec{Bench: b, Scale: 1, Protocol: ProtocolFromOptions(o)}.Normalized())
		}
	}
	if len(specs) != 152 {
		t.Fatalf("%d specs, want 19 benches × 8 variants", len(specs))
	}
	rebuild := Spec{Bench: "tq", Scale: 1, Protocol: ProtocolFromOptions(namedVariants[6]),
		Topology: TopologySpec{DirBanks: 2}}.Normalized()
	want := freshResults(t, append(specs, rebuild))

	var r system.Runner
	defer r.Close()
	order := rand.New(rand.NewSource(31)).Perm(len(specs))
	for i, k := range order {
		switch i {
		case 40:
			// Another shape: the runner builds a new system, then a
			// third when the eval shape returns.
			if got, err := execute(context.Background(), &r, rebuild); err != nil || !bytes.Equal(got, want[rebuild]) {
				t.Fatalf("%s after %d kept runs: %v\n got %s\nwant %s", rebuild, i, err, got, want[rebuild])
			}
		case 80:
			cfg, w, err := buildRun(specs[k])
			if err != nil {
				t.Fatal(err)
			}
			cfg.MaxTicks = 5_000
			if _, err := r.Run(cfg, w); err == nil {
				t.Fatalf("%s: a run past MaxTicks returned no error", specs[k])
			}
		case 120:
			cfg, w, err := buildRun(specs[k])
			if err != nil {
				t.Fatal(err)
			}
			w.Threads[0] = func(c *prog.CPUThread) {
				c.Compute(100)
				panic("workload bug")
			}
			func() {
				defer func() {
					if v := recover(); v != "workload bug" {
						t.Fatalf("%s: the run panicked with %v, want the workload's value", specs[k], v)
					}
				}()
				r.Run(cfg, w)
			}()
		}
		sp := specs[k]
		got, err := execute(context.Background(), &r, sp)
		if err != nil {
			t.Fatalf("run %d, %s: %v", i, sp, err)
		}
		if !bytes.Equal(got, want[sp]) {
			t.Fatalf("run %d, %s: a kept system's result differs from a fresh one's:\n got %s\nwant %s", i, sp, got, want[sp])
		}
	}
}

// TestWorkerResultsMatchExecute: a one-worker engine runs a sequence of
// specs on its worker's runner, a cancelled job and a timed-out job
// among them, and every job that completes returns Execute's bytes.
func TestWorkerResultsMatchExecute(t *testing.T) {
	const stalled = 99 // the seed of the job whose run starts past its deadline
	var r system.Runner
	e := New(Config{Workers: 1, JobTimeout: 2 * time.Second, Exec: func(ctx context.Context, sp Spec) ([]byte, error) {
		if sp.Seed == stalled {
			<-ctx.Done() // interrupted at the run's first poll
		}
		return execute(ctx, &r, sp)
	}})
	defer r.Close()
	defer e.Close()
	ctx := context.Background()
	spec := func(bench string, variant int, seed int64) Spec {
		return Spec{Bench: bench, Scale: 1, Seed: seed, Protocol: ProtocolFromOptions(namedVariants[variant])}
	}
	for i, sp := range []Spec{
		spec("bs", 0, 0),
		spec("tq", 6, 0),
		{Bench: "bs", Scale: 16, Protocol: ProtocolFromOptions(namedVariants[1])}, // cancelled
		spec("sc", 4, 0),
		spec("hsto", 7, stalled), // timed out
		spec("bs", 7, 1),
		{Bench: "tq", Scale: 1, Topology: TopologySpec{NumCUs: 4}},
		spec("cedd", 0, 0),
	} {
		j, err := e.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 2:
			for j.State() == Queued {
				time.Sleep(time.Millisecond)
			}
			j.Cancel()
			if _, err := j.Wait(ctx); !errors.Is(err, ErrCanceled) {
				t.Fatalf("cancelled job: %v, want ErrCanceled", err)
			}
			continue
		case 4:
			if _, err := j.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("stalled job: %v, want a timeout", err)
			}
			continue
		}
		got, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("%s: %v", sp, err)
		}
		want, err := Execute(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s on the worker's kept system:\n got %s\nwant %s (Execute)", sp, got, want)
		}
	}
	if st := e.Stats(); st.Done != 6 || st.Canceled != 1 || st.TimedOut != 1 {
		t.Fatalf("stats = %+v, want 6 done, 1 cancelled, 1 timed out", st)
	}
}

// TestDefaultWorkersStopKeptSystems: with the default executor, a
// worker keeps its system across the jobs queued behind each other and
// drops it after a job that panics, so every job returns Execute's
// bytes; and once Close returns, with jobs still running and queued,
// the goroutine count is back to its value before New, the kept
// systems' workload coroutines included.
func TestDefaultWorkersStopKeptSystems(t *testing.T) {
	ctx := context.Background()
	before := runtime.NumGoroutine()
	e := New(Config{Workers: 1})
	bad := smallSpec()
	bad.Topology.DirBanks = 3 // system.New panics: not a power of two
	var specs []Spec
	for i, o := range namedVariants {
		sp := smallSpec()
		sp.Protocol = ProtocolFromOptions(o)
		specs = append(specs, sp)
		if i == 3 {
			specs = append(specs, bad)
		}
	}
	jobs := make([]*Job, len(specs))
	for i, sp := range specs {
		var err error
		if jobs[i], err = e.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		got, err := j.Wait(ctx)
		if specs[i] == bad {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want a *PanicError", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(ctx, specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d, %s:\n got %s\nwant %s (Execute)", i, specs[i], got, want)
		}
	}
	e2 := New(Config{Workers: 2})
	for _, b := range []string{"tq", "sc", "hsti", "bs"} {
		if _, err := e2.Submit(Spec{Bench: b, Scale: 2}); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	e2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before New: kept systems' coroutines leaked", n, before)
	}
}
