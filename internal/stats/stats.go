// Package stats names the simulator's counters.
//
// A component declares its counters as a struct of plain uint64 fields
// plus Histogram values, each named by a `stat:"name"` tag, and bumps
// them in place. Every simulated system runs on one goroutine, so no
// counter is atomic or locked. A Table, built once per struct type at
// package init, turns such a struct into the flat "prefix.name" →
// value map that run results carry; the caller picks each component's
// prefix. The key strings are built once per prefix and kept, so a
// run's dump allocates no key; systems on several goroutines share
// them, under a lock.
package stats

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
)

// field is one named field of a counter struct.
type field struct {
	name  string
	index int
}

// Table is the name table of one counter struct type T.
type Table[T any] struct {
	counters []field
	hists    []field

	mu   sync.Mutex
	keys map[string]*keySet // by prefix
}

// keySet is one prefix's "prefix.name" keys, in field order.
type keySet struct{ counters, hists []string }

var (
	counterType   = reflect.TypeOf(uint64(0))
	histogramType = reflect.TypeOf(Histogram{})
)

// NewTable builds T's name table. It panics unless T is a struct whose
// every field is an exported uint64 or Histogram carrying a non-empty
// `stat` tag, with no tag used twice — so a counter can be neither
// unnamed nor share a name with another. Build tables in package-level
// variables, where a bad struct fails at init.
func NewTable[T any]() *Table[T] {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	if typ.Kind() != reflect.Struct {
		panic(fmt.Sprintf("stats: %v is not a struct", typ))
	}
	t := &Table[T]{keys: make(map[string]*keySet)}
	seen := make(map[string]string, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := f.Tag.Get("stat")
		switch {
		case name == "":
			panic(fmt.Sprintf("stats: %v.%s has no stat tag", typ, f.Name))
		case !f.IsExported():
			panic(fmt.Sprintf("stats: %v.%s is unexported", typ, f.Name))
		case seen[name] != "":
			panic(fmt.Sprintf("stats: %v.%s and %v.%s are both named %q", typ, seen[name], typ, f.Name, name))
		}
		seen[name] = f.Name
		switch f.Type {
		case counterType:
			t.counters = append(t.counters, field{name, i})
		case histogramType:
			t.hists = append(t.hists, field{name, i})
		default:
			panic(fmt.Sprintf("stats: %v.%s is a %v, not a uint64 or Histogram", typ, f.Name, f.Type))
		}
	}
	return t
}

// Append adds v's counters to counters and its histograms to hists,
// each keyed "prefix.name"; either map may be nil to skip that kind. It
// panics on a key already present, which is what two components given
// one prefix would produce.
func (t *Table[T]) Append(counters map[string]uint64, hists map[string]*Histogram, prefix string, v *T) {
	ks := t.keysFor(prefix)
	rv := reflect.ValueOf(v).Elem()
	if counters != nil {
		for i, f := range t.counters {
			counters[mustBeNew(counters, ks.counters[i])] = rv.Field(f.index).Uint()
		}
	}
	if hists != nil {
		for i, f := range t.hists {
			hists[mustBeNew(hists, ks.hists[i])] = rv.Field(f.index).Addr().Interface().(*Histogram)
		}
	}
}

// keysFor returns prefix's keys, building them on the prefix's first
// Append.
func (t *Table[T]) keysFor(prefix string) *keySet {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ks := t.keys[prefix]; ks != nil {
		return ks
	}
	ks := &keySet{}
	for _, f := range t.counters {
		ks.counters = append(ks.counters, prefix+"."+f.name)
	}
	for _, f := range t.hists {
		ks.hists = append(ks.hists, prefix+"."+f.name)
	}
	t.keys[prefix] = ks
	return ks
}

// mustBeNew returns k, panicking if m already holds it.
func mustBeNew[V any](m map[string]V, k string) string {
	if _, dup := m[k]; dup {
		panic(fmt.Sprintf("stats: %s appended twice", k))
	}
	return k
}

// Indexed returns prefix followed by i in decimal ("cp3"), the prefix
// of the i-th of several like components. Like a Table's keys, each
// string is built once and kept: a cache that no result depends on.
func Indexed(prefix string, i int) string {
	indexed.Lock()
	defer indexed.Unlock()
	k := indexedKey{prefix, i}
	s, ok := indexed.names[k]
	if !ok {
		s = prefix + strconv.Itoa(i)
		if indexed.names == nil {
			indexed.names = make(map[indexedKey]string)
		}
		indexed.names[k] = s
	}
	return s
}

type indexedKey struct {
	prefix string
	i      int
}

var indexed struct {
	sync.Mutex
	names map[indexedKey]string
}
