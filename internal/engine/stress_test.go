package engine

import (
	"context"
	"errors"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestStressSubmitDrain is the engine half of the CI race leg:
// overlapping Submit/Wait traffic from many goroutines (dedup hits,
// queue rejections, cache fills) with a Drain fired mid-flight. The
// assertions are deliberately weak — every job must resolve one way or
// another within the deadline; the value of the test is the -race run
// over the engine's mutex discipline under genuine contention.
func TestStressSubmitDrain(t *testing.T) {
	exec := func(_ context.Context, sp Spec) ([]byte, error) {
		time.Sleep(500 * time.Microsecond)
		return []byte(`{"bench":"` + sp.Bench + `"}`), nil
	}
	e := New(Config{Workers: 4, QueueDepth: 32, Exec: exec})
	defer e.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	const goroutines = 8
	const iters = 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// A small bench space so goroutines collide on hashes and
				// exercise the dedup/index paths, not just the queue.
				j, err := e.Submit(Spec{Bench: "stress-" + strconv.Itoa((g+i)%12), Seed: int64(i % 3)})
				if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
					continue // backpressure and shutdown are expected mid-stress
				}
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if _, err := j.Wait(ctx); err != nil && !errors.Is(err, ErrCanceled) {
					t.Errorf("Wait: %v", err)
					return
				}
			}
		}(g)
	}

	time.Sleep(5 * time.Millisecond)
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
}

// TestStressDrainMidSweep drains the engine while a POST /sweeps stream
// is in flight, with a queue smaller than the sweep: in-flight cells
// finish, queued and unsubmitted cells fail cleanly, and the stream
// still carries every cell and ends with a summary line.
func TestStressDrainMidSweep(t *testing.T) {
	slow := func(_ context.Context, sp Spec) ([]byte, error) {
		time.Sleep(2 * time.Millisecond)
		return []byte(`{"hash":"` + sp.Normalized().Hash() + `"}`), nil
	}
	e := New(Config{Workers: 2, QueueDepth: 4, Exec: slow})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	spec := evalSweep()
	for th := 1; th <= 8; th++ { // the eval topology has 8 cores
		spec.Points = append(spec.Points, SweepPoint{Threads: th})
	}
	drained := make(chan error, 1)
	time.AfterFunc(5*time.Millisecond, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- e.Drain(ctx)
	})
	run := postSweep(t, srv, spec)
	if run.total != 18 {
		t.Fatalf("sweep total = %d, want 18", run.total)
	}
	for _, c := range run.cells {
		if (c.State == "done") == (c.Error != "") {
			t.Fatalf("cell %d: state %q with error %q", c.Index, c.State, c.Error)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
