package stats

import (
	"strings"
	"testing"
)

type widgetStats struct {
	Hits    uint64    `stat:"hits"`
	Misses  uint64    `stat:"misses"`
	Latency Histogram `stat:"latency"`
}

var widgetTable = NewTable[widgetStats]()

func TestCounterBasics(t *testing.T) {
	var w widgetStats
	w.Hits++
	w.Misses += 4
	w.Latency.Observe(7)
	counters := make(map[string]uint64)
	hists := make(map[string]*Histogram)
	widgetTable.Append(counters, hists, "w0", &w)
	if len(counters) != 2 || counters["w0.hits"] != 1 || counters["w0.misses"] != 4 {
		t.Fatalf("counters = %v", counters)
	}
	if len(hists) != 1 || hists["w0.latency"] != &w.Latency {
		t.Fatalf("histograms = %v, want w0.latency aliasing the struct's field", hists)
	}
	// Either map may be skipped.
	widgetTable.Append(nil, nil, "w1", &w)
	only := make(map[string]uint64)
	widgetTable.Append(only, nil, "w1", &w)
	if len(only) != 2 {
		t.Fatalf("counters-only append = %v", only)
	}
}

// mustPanic runs f and returns its panic message, failing the test if
// f returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("did not panic")
		}
		msg, _ = r.(string)
	}()
	f()
	return ""
}

// TestUnnamedOrDuplicateFieldPanics covers the two ways a counter
// struct could leave a counter uncounted or double-counted: two fields
// sharing a name, and a field with no name. Each panics at table build.
func TestUnnamedOrDuplicateFieldPanics(t *testing.T) {
	t.Run("duplicate name", func(t *testing.T) {
		type dup struct {
			In  uint64 `stat:"frames"`
			Out uint64 `stat:"frames"`
		}
		if msg := mustPanic(t, func() { NewTable[dup]() }); !strings.Contains(msg, `both named "frames"`) {
			t.Fatalf("panic = %q", msg)
		}
	})
	t.Run("untagged field", func(t *testing.T) {
		type untagged struct {
			Hits   uint64 `stat:"hits"`
			Misses uint64
		}
		if msg := mustPanic(t, func() { NewTable[untagged]() }); !strings.Contains(msg, "Misses has no stat tag") {
			t.Fatalf("panic = %q", msg)
		}
	})
}

// TestSharedPrefixPanics covers two components appended under one
// prefix, whose counters would otherwise alias: the second Append
// panics, for counters and histograms alike.
func TestSharedPrefixPanics(t *testing.T) {
	var a, b widgetStats
	counters := make(map[string]uint64)
	widgetTable.Append(counters, nil, "w", &a)
	if msg := mustPanic(t, func() { widgetTable.Append(counters, nil, "w", &b) }); !strings.Contains(msg, "w.hits appended twice") {
		t.Fatalf("panic = %q", msg)
	}
	hists := make(map[string]*Histogram)
	widgetTable.Append(nil, hists, "w", &a)
	if msg := mustPanic(t, func() { widgetTable.Append(nil, hists, "w", &b) }); !strings.Contains(msg, "w.latency appended twice") {
		t.Fatalf("panic = %q", msg)
	}
}

func TestTableRejectsOtherFields(t *testing.T) {
	type narrow struct {
		N uint32 `stat:"n"`
	}
	type hidden struct {
		n uint64 `stat:"n"`
	}
	for name, build := range map[string]func(){
		"not a uint64 or Histogram": func() { NewTable[narrow]() },
		"is unexported":             func() { NewTable[hidden]() },
		"is not a struct":           func() { NewTable[uint64]() },
	} {
		if msg := mustPanic(t, build); !strings.Contains(msg, name) {
			t.Errorf("panic = %q, want it to say %q", msg, name)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 100, 200, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if h.Mean() < 217 || h.Mean() > 218 {
		t.Fatalf("mean = %v", h.Mean())
	}
	// p50 falls in the bucket containing 3 → upper bound ≥ 3.
	if p := h.Percentile(50); p < 3 {
		t.Fatalf("p50 ≤ %d, want ≥ 3", p)
	}
	if p := h.Percentile(100); p < 1000 {
		t.Fatalf("p100 ≤ %d, want ≥ 1000", p)
	}
	if h.Percentile(-5) > h.Percentile(200) {
		t.Fatal("clamping broken")
	}
	if got, want := h.String(), "n=6 mean=217.7 min=1 p50≤3 p90≤255 p99≤255 max=1000"; got != want {
		t.Fatalf("string = %q, want %q", got, want)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should be zero-valued")
	}
	if h.String() != "no samples" {
		t.Fatalf("empty string form = %q", h.String())
	}
}
