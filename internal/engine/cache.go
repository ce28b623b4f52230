package engine

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// Cache is the content-addressed result store: an in-memory LRU over
// canonical result encodings, optionally backed by an on-disk store.
// Keys are job hashes (see Spec.Hash), which already fold in the code
// version, so entries never go stale — a key either maps to the one
// result its spec can produce, or is absent.
//
// The disk store is one file per key, written to a temporary file and
// renamed into place, so a writer killed or cancelled mid-write can
// never leave a corrupt entry behind — the key simply stays absent
// until a complete write lands. The same rename makes one directory
// safe to share between processes: each sees a key as absent or
// complete, never half-written. Each file ends in a CRC-32C of its
// result, so an entry damaged after the rename (emptied, truncated,
// overwritten) reads as a miss, and the re-run replaces it.
type Cache struct {
	max int
	dir string

	mu      sync.Mutex // guards the fields below
	ll      *list.List // front = most recently used
	byKey   map[string]*list.Element
	hits    uint64 // in-memory hits
	disk    uint64 // disk hits (promoted into memory)
	misses  uint64
	corrupt uint64 // disk entries that failed their checksum (also misses)
	puts    uint64
	evicted uint64
}

type cacheEntry struct {
	key string
	val []byte
}

// CacheStats is a point-in-time view of the cache's effectiveness.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	DiskHits  uint64 `json:"diskHits"`
	Misses    uint64 `json:"misses"`
	Corrupt   uint64 `json:"corrupt"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
}

// NewCache returns a cache holding up to maxEntries results in memory
// (≤0 means 4096). A non-empty dir enables the on-disk store; the
// directory is created if needed.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: cache dir: %w", err)
		}
	}
	return &Cache{
		max:   maxEntries,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
		dir:   dir,
	}, nil
}

// Get returns a copy of the cached result for key. A memory miss falls
// through to the disk store; a disk hit is promoted into memory, and a
// disk entry that fails its checksum counts as corrupt and misses. The
// disk read runs outside the cache lock, and may be slow: callers must
// not hold a lock of their own across Get.
func (c *Cache) Get(key string) ([]byte, bool) {
	v, ok := c.shared(key)
	if !ok {
		return nil, false
	}
	return cloneBytes(v), true
}

// shared is Get without the copy: the returned slice is the cache's
// own, which the cache never writes into, and callers must not either.
// A warm hit that hands its result out through Job.Result, or writes
// it to a response, copies it at most once that way.
func (c *Cache) shared(key string) ([]byte, bool) {
	if v, ok := c.memGet(key); ok {
		return v, true
	}
	if c.dir == "" {
		c.count(&c.misses)
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		c.count(&c.misses)
		return nil, false
	}
	b, ok := unseal(b)
	if !ok {
		c.mu.Lock()
		c.corrupt++
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	c.disk++
	c.insertLocked(key, b)
	c.mu.Unlock()
	return b, true
}

// memGet looks key up in memory. The returned slice is shared with the
// cache, which never writes into a stored value.
func (c *Cache) memGet(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).val, true
}

// Put stores a result under key in memory and, when configured, on
// disk. The disk write is atomic (temp file + rename) and runs outside
// the cache lock.
func (c *Cache) Put(key string, val []byte) error {
	val = cloneBytes(val)
	c.mu.Lock()
	c.puts++
	c.insertLocked(key, val)
	c.mu.Unlock()

	if c.dir == "" {
		return nil
	}
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("engine: cache write: %w", err)
	}
	if _, err := tmp.Write(seal(val)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: cache write: %w", err)
	}
	return nil
}

// Len reports the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns hit/miss counts since construction.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Hits:      c.hits,
		DiskHits:  c.disk,
		Misses:    c.misses,
		Corrupt:   c.corrupt,
		Puts:      c.puts,
		Evictions: c.evicted,
	}
}

// insertLocked adds or refreshes an entry and evicts from the LRU tail
// past capacity. Caller holds c.mu.
func (c *Cache) insertLocked(key string, val []byte) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byKey, tail.Value.(*cacheEntry).key)
		c.evicted++
	}
}

func (c *Cache) count(field *uint64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// castagnoli is the CRC-32C table of the disk entries' trailers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seal returns a disk entry: val followed by its 4-byte big-endian
// CRC-32C.
func seal(val []byte) []byte {
	out := make([]byte, len(val), len(val)+4)
	copy(out, val)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(val, castagnoli))
}

// unseal returns the result a disk entry holds, and false when the
// entry is too short or its checksum does not match.
func unseal(b []byte) ([]byte, bool) {
	n := len(b) - 4
	if n < 0 || crc32.Checksum(b[:n], castagnoli) != binary.BigEndian.Uint32(b[n:]) {
		return nil, false
	}
	return b[:n], true
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
