package system_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/system"
)

// storageFields are the fields a reset keeps as they are, so a reset
// system differs from a new one only in them. Each is storage whose
// size or contents order nothing a run does.
var storageFields = map[string]string{
	"sim.Engine.free": "the event free list: pooled events carry no state into the next post",
	"noc.Interconnect.slots": "the slot table: which slot a message waits in never enters the " +
		"event order",
	"noc.Interconnect.freeSlots": "the slot table's free list",
	"recycle.Free.free":          "a free list: a reused record is overwritten by the Get that takes it",
	"recycle.Queues.free":        "drained queue arrays kept for reuse",
	"recycle.Table.slots": "the table's capacity; tableEntries compares its entries, which " +
		"no simulated step iterates (core/violation.go's diagnostic is the only ForEach)",
	"recycle.Table.shift": "the table's capacity",
	"cpu.Core.thread":     "an idle thread slot: which slot runs a thread never enters the event order",
	"gpu.Dispatcher.idle": "idle wave slots: which slot runs a wave never enters the event order",
	"system.System.held": "CheckCoherence's holding list: each check truncates it before " +
		"filling it, so no run or check reads what the last one left",
}

// resetCases run a workload under one protocol variant, reset the
// system to another and compare it with a system New builds for that
// one.
var resetCases = []struct {
	bench    string
	run, cmp core.Options
	wbTCC    bool
}{
	{"tq", core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true}, core.Options{}, false},
	{"sc", core.Options{EarlyDirtyResponse: true}, core.Options{Tracking: core.TrackOwner, LLCWriteBack: true}, true},
	{"cedd", core.Options{Tracking: core.TrackOwner, ReadOnlyElision: true}, core.Options{Tracking: core.TrackOwner}, false},
}

// TestResetEqualsNew: after a run and a Reset, a system deep-equals one
// New builds for the reset's config, storage fields aside: every
// counter, cache array, queue, table entry, clock and sequence number
// is back at its initial value.
func TestResetEqualsNew(t *testing.T) {
	for _, c := range resetCases {
		t.Run(c.bench, func(t *testing.T) {
			cfg := smallConfig(c.run)
			cfg.GPU.WriteBackL2 = c.wbTCC
			w, err := chai.ByName(c.bench, chai.Params{Scale: 1, CPUThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			// A Runner's run: the idle workload coroutines stay parked.
			s := system.New(cfg)
			defer s.Stop()
			if _, err := s.RunKept(w); err != nil {
				t.Fatal(err)
			}
			cfg.Protocol = c.cmp
			s.Reset(cfg)
			var diffs []string
			deepCompare(&diffs, "System", reflect.ValueOf(s), reflect.ValueOf(system.New(cfg)), map[[2]uintptr]bool{})
			if len(diffs) > 0 {
				t.Fatalf("reset system differs from a new one in %d places:\n%s", len(diffs), strings.Join(diffs[:min(len(diffs), 20)], "\n"))
			}
		})
	}
}

// deepCompare appends to diffs every path where a and b differ. It
// follows pointers (each pair once), compares slices by length and
// contents and maps by contents, skips func values, and skips the
// storage fields.
func deepCompare(diffs *[]string, path string, a, b reflect.Value, seen map[[2]uintptr]bool) {
	if a.IsValid() != b.IsValid() {
		*diffs = append(*diffs, path+": one side invalid")
		return
	}
	if !a.IsValid() {
		return
	}
	if a.Type() != b.Type() {
		*diffs = append(*diffs, fmt.Sprintf("%s: type %s vs %s", path, a.Type(), b.Type()))
		return
	}
	switch a.Kind() {
	case reflect.Func:
		return
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				*diffs = append(*diffs, path+": nil vs non-nil pointer")
			}
			return
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[key] {
			return
		}
		seen[key] = true
		deepCompare(diffs, path, a.Elem(), b.Elem(), seen)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				*diffs = append(*diffs, path+": nil vs non-nil interface")
			}
			return
		}
		deepCompare(diffs, path, a.Elem(), b.Elem(), seen)
	case reflect.Chan:
		if a.IsNil() != b.IsNil() {
			*diffs = append(*diffs, path+": nil vs non-nil channel")
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			*diffs = append(*diffs, fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len()))
			return
		}
		for i := 0; i < a.Len(); i++ {
			deepCompare(diffs, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), seen)
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			*diffs = append(*diffs, fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len()))
			return
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				*diffs = append(*diffs, fmt.Sprintf("%s[%v]: missing", path, k))
				continue
			}
			deepCompare(diffs, fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv, seen)
		}
	case reflect.Struct:
		name := strings.TrimPrefix(a.Type().PkgPath(), "hscsim/internal/") + "." + a.Type().Name()
		if i := strings.IndexByte(name, '['); i >= 0 {
			name = name[:i] // a generic type's instantiation
		}
		if name == "recycle.Table" {
			deepCompare(diffs, path+".entries", tableEntries(a), tableEntries(b), seen)
		}
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if _, ok := storageFields[name+"."+f.Name]; ok {
				continue
			}
			deepCompare(diffs, path+"."+f.Name, a.Field(i), b.Field(i), seen)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			*diffs = append(*diffs, fmt.Sprintf("%s: %t vs %t", path, a.Bool(), b.Bool()))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			*diffs = append(*diffs, fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int()))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			*diffs = append(*diffs, fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint()))
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			*diffs = append(*diffs, fmt.Sprintf("%s: %g vs %g", path, a.Float(), b.Float()))
		}
	case reflect.String:
		if a.String() != b.String() {
			*diffs = append(*diffs, fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String()))
		}
	default:
		*diffs = append(*diffs, fmt.Sprintf("%s: cannot compare kind %s", path, a.Kind()))
	}
}

// tableEntries returns a recycle.Table's occupied slots, sorted by key,
// so tables of different capacities holding the same entries compare
// equal.
func tableEntries(t reflect.Value) reflect.Value {
	slots := t.FieldByName("slots")
	out := reflect.MakeSlice(slots.Type(), 0, slots.Len())
	for i := 0; i < slots.Len(); i++ {
		if slots.Index(i).Field(0).Uint() != 0 {
			out = reflect.Append(out, slots.Index(i))
		}
	}
	idx := make([]int, out.Len())
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int {
		return cmp.Compare(out.Index(i).Field(0).Uint(), out.Index(j).Field(0).Uint())
	})
	sorted := reflect.MakeSlice(slots.Type(), 0, out.Len())
	for _, i := range idx {
		sorted = reflect.Append(sorted, out.Index(i))
	}
	return sorted
}
