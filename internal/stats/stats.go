// Package stats names the simulator's counters.
//
// A component declares its counters as a struct of plain uint64 fields
// plus Histogram values, each named by a `stat:"name"` tag, and bumps
// them in place. Every simulated system runs on one goroutine, so
// nothing here is atomic or locked. A Table, built once per struct type
// at package init, turns such a struct into the flat "prefix.name" →
// value map that run results carry; the caller picks each component's
// prefix.
package stats

import (
	"fmt"
	"reflect"
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
}

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
	t := &Table[T]{}
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
	rv := reflect.ValueOf(v).Elem()
	if counters != nil {
		for _, f := range t.counters {
			counters[key(counters, prefix, f.name)] = rv.Field(f.index).Uint()
		}
	}
	if hists != nil {
		for _, f := range t.hists {
			hists[key(hists, prefix, f.name)] = rv.Field(f.index).Addr().Interface().(*Histogram)
		}
	}
}

// key returns prefix.name, panicking if m already holds it.
func key[V any](m map[string]V, prefix, name string) string {
	k := prefix + "." + name
	if _, dup := m[k]; dup {
		panic(fmt.Sprintf("stats: %s appended twice", k))
	}
	return k
}
