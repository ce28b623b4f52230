package engine

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestCacheLRU(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", []byte("B")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("a"); !ok { // refresh a → b is now LRU
		t.Fatal("a missing")
	}
	if err := c.Put("c", []byte("C")); err != nil { // evicts b
		t.Fatal(err)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing after eviction", k)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheReturnsCopies(t *testing.T) {
	c, _ := NewCache(0, "")
	val := []byte("value")
	c.Put("k", val)
	val[0] = 'X' // caller mutates its slice after Put
	got, ok := c.Get("k")
	if !ok || string(got) != "value" {
		t.Fatalf("got %q, want %q", got, "value")
	}
	got[0] = 'Y' // caller mutates the returned slice
	again, _ := c.Get("k")
	if string(again) != "value" {
		t.Fatalf("cache entry mutated through Get: %q", again)
	}
}

func TestCacheDiskStore(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("deadbeef", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory serves the entry from disk
	// and promotes it into memory.
	c2, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("deadbeef")
	if !ok || !bytes.Equal(got, []byte(`{"x":1}`)) {
		t.Fatalf("disk get = %q, %v", got, ok)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Second Get is a memory hit.
	if _, ok := c2.Get("deadbeef"); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("stats after promotion = %+v", st)
	}
}

// TestCacheIgnoresPartialWrites: an abandoned temporary file — what a
// killed writer leaves behind — must never surface as a cache entry.
func TestCacheIgnoresPartialWrites(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".put-123456"), []byte("garb"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("123456"); ok {
		t.Fatal("partial write visible as a cache entry")
	}
	if _, ok := c.Get("put-123456"); ok {
		t.Fatal("partial write visible as a cache entry")
	}
}

// TestCacheCorruptDiskEntryIsMiss: a disk entry emptied or truncated
// after it landed fails its checksum, so Get reports a miss and counts
// it as corrupt instead of serving the damaged bytes.
func TestCacheCorruptDiskEntryIsMiss(t *testing.T) {
	val := []byte(`{"bench":"bs","cycles":12345}`)
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"empty", func([]byte) []byte { return nil }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"trailer only", func(b []byte) []byte { return b[len(b)-4:] }},
		{"bit flip", func(b []byte) []byte { b[3] ^= 1; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewCache(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put("k", val); err != nil {
				t.Fatal(err)
			}
			path := c.path("k")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewCache(0, dir) // empty memory: Get reads disk
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := fresh.Get("k"); ok {
				t.Fatalf("damaged entry served as a hit: %q", got)
			}
			if st := fresh.Stats(); st.Corrupt != 1 || st.Misses != 1 || st.DiskHits != 0 {
				t.Fatalf("stats = %+v, want one corrupt miss", st)
			}
		})
	}
}

// TestCorruptEntryReRunAndRepaired: a job whose disk entry is empty
// runs again instead of completing as a cached Done job with an empty
// result, and its Put replaces the entry, so the next process serves
// the same bytes from disk.
func TestCorruptEntryReRunAndRepaired(t *testing.T) {
	dir := t.TempDir()
	sp := Spec{Bench: "repair"}
	if err := os.WriteFile(filepath.Join(dir, sp.Normalized().Hash()+".json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"bench":"repair"}`)
	runs := 0
	open := func() *Engine {
		c, err := NewCache(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		return New(Config{Workers: 1, Cache: c, Exec: func(context.Context, Spec) ([]byte, error) {
			runs++
			return want, nil
		}})
	}
	e := open()
	j, err := e.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil || j.Cached() || !bytes.Equal(got, want) || runs != 1 {
		t.Fatalf("first run: result %q, cached %t, err %v, runs %d; want a fresh run of %s", got, j.Cached(), err, runs, want)
	}
	if st := e.Stats().Cache; st.Corrupt != 1 {
		t.Fatalf("cache stats = %+v, want the empty entry counted as corrupt", st)
	}
	e.Close()

	e = open()
	defer e.Close()
	j, err = e.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err = j.Wait(context.Background())
	if err != nil || !j.Cached() || !bytes.Equal(got, want) || runs != 1 {
		t.Fatalf("second process: result %q, cached %t, err %v, runs %d; want the repaired entry from disk", got, j.Cached(), err, runs)
	}
}

func TestCacheMissCounts(t *testing.T) {
	c, _ := NewCache(0, "")
	if _, ok := c.Get("absent"); ok {
		t.Fatal("hit on empty cache")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheConcurrentStress hammers one cache from many goroutines —
// overlapping Get/Put on a hot key set small enough to force constant
// LRU eviction, over a real disk store — and then verifies every
// surviving entry is intact. Run under -race (CI does) this is the
// cache's concurrency proof.
func TestCacheConcurrentStress(t *testing.T) {
	c, err := NewCache(8, t.TempDir()) // tiny LRU: constant eviction
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const keys = 32
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprintf("key-%d", (g*7+i)%keys)
				want := "val-" + k
				if v, ok := c.Get(k); ok && string(v) != want {
					t.Errorf("corrupt read: key %s = %q", k, v)
					return
				}
				if err := c.Put(k, []byte(want)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v, ok := c.Get(k); !ok || string(v) != "val-"+k {
			t.Fatalf("after stress: key %s = %q, %v", k, v, ok)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("stress never evicted; LRU bound not exercised")
	}
}
