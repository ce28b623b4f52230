//go:build unix

package engine

import (
	"context"
	"errors"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// These tests park a cache read on a named pipe: os.ReadFile of a FIFO
// blocks until the test writes into it, which stands in for a slow
// disk. While the read is parked, every other call must still finish,
// so no lock can be held across the read.

// makePipe creates a named pipe at path, or skips the test where the
// file system has none.
func makePipe(t *testing.T, path string) {
	t.Helper()
	if err := syscall.Mkfifo(path, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
}

// openPipeWriter opens the pipe's write end once a reader has opened it.
// Until then a non-blocking open fails with ENXIO, so polling it tells
// the test that the read it parks has begun.
func openPipeWriter(t *testing.T, path string) int {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		fd, err := syscall.Open(path, syscall.O_WRONLY|syscall.O_NONBLOCK, 0)
		if err == nil {
			return fd
		}
		if !errors.Is(err, syscall.ENXIO) || time.Now().After(deadline) {
			t.Fatalf("no reader opened %s: %v", path, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// releasePipe writes data into the pipe and closes it; the parked
// reader then reads data and EOF.
func releasePipe(t *testing.T, fd int, data string) {
	t.Helper()
	if _, err := syscall.Write(fd, []byte(data)); err != nil {
		t.Fatal(err)
	}
	syscall.Close(fd)
}

// finishesWithin runs fn on its own goroutine and reports whether it
// returned within d. The returned channel closes when fn returns.
func finishesWithin(d time.Duration, fn func()) (<-chan struct{}, bool) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return done, true
	case <-time.After(d):
		return done, false
	}
}

// TestSubmitProbesCacheOutsideEngineLock pins the engine's one lock
// incident: a Submit whose cache probe reads disk must not hold the
// engine lock, or one slow probe serializes every other submission.
func TestSubmitProbesCacheOutsideEngineLock(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 2, Cache: cache, Exec: func(ctx context.Context, sp Spec) ([]byte, error) {
		if sp.Bench == "parked" {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return []byte(`{"bench":"` + sp.Bench + `"}`), nil
	}})
	defer e.Close()

	sp := Spec{Bench: "probe"}
	path := filepath.Join(dir, sp.Normalized().Hash()+".json")
	makePipe(t, path)
	type submitted struct {
		j   *Job
		err error
	}
	probed := make(chan submitted, 1)
	go func() {
		j, err := e.Submit(sp)
		probed <- submitted{j, err}
	}()
	fd := openPipeWriter(t, path)

	done, ok := finishesWithin(2*time.Second, func() {
		e.Stats()
		other, err := e.Submit(Spec{Bench: "parked"})
		if err != nil {
			t.Error(err)
			return
		}
		if j, ok := e.Job(other.Hash); !ok || j != other {
			t.Error("Job did not return the parked job")
		}
		other.Cancel()
		if _, err := other.Wait(context.Background()); !errors.Is(err, ErrCanceled) {
			t.Errorf("cancelled job: err = %v, want ErrCanceled", err)
		}
		if _, err := e.Run(context.Background(), Spec{Bench: "quick"}); err != nil {
			t.Errorf("Submit+Wait of another spec: %v", err)
		}
	})
	if !ok {
		syscall.Close(fd) // EOF ends the parked probe
		<-done
		<-probed
		t.Fatal("Stats, Job, Cancel or Submit+Wait blocked for 2 s behind a Submit reading the cache from disk")
	}

	const want = `{"bench":"probe"}`
	releasePipe(t, fd, string(seal([]byte(want))))
	select {
	case r := <-probed:
		if r.err != nil {
			t.Fatal(r.err)
		}
		b, err := r.j.Result()
		if r.j.State() != Done || !r.j.Cached() || err != nil || string(b) != want {
			t.Fatalf("probed job: state %v, cached %v, result %q, err %v; want a cached Done job with %s",
				r.j.State(), r.j.Cached(), b, err, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Submit did not return after the pipe was written")
	}
}

// TestCacheDiskReadOutsideCacheLock is the cache's twin: while one Get
// reads disk, Len, Stats, and Put and Get of other keys all finish.
func TestCacheDiskReadOutsideCacheLock(t *testing.T) {
	c, err := NewCache(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := c.path("parked")
	makePipe(t, path)
	got := make(chan []byte, 1)
	go func() {
		v, _ := c.Get("parked")
		got <- v
	}()
	fd := openPipeWriter(t, path)

	done, ok := finishesWithin(2*time.Second, func() {
		c.Len()
		c.Stats()
		if err := c.Put("other", []byte("O")); err != nil {
			t.Error(err)
		}
		if v, ok := c.Get("other"); !ok || string(v) != "O" {
			t.Errorf("Get(other) = %q, %v", v, ok)
		}
	})
	if !ok {
		syscall.Close(fd) // EOF ends the parked read
		<-done
		<-got
		t.Fatal("Len, Stats, Put or Get blocked for 2 s behind a Get reading disk")
	}

	releasePipe(t, fd, string(seal([]byte("P"))))
	select {
	case v := <-got:
		if string(v) != "P" {
			t.Fatalf("parked Get = %q, want %q", v, "P")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get did not return after the pipe was written")
	}
}
