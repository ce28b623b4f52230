package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"hscsim/internal/system"
)

// evalCellResult is the canonical result of one evaluation cell:
// EvalSpec("bs", core.Options{}) executed, 110 counters.
func evalCellResult(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile("testdata/result_bs_baseline.json")
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// codecResults are results whose round trip through the codec must be
// exact: a real eval cell, nil and empty Stats, strings that need every
// escape class encoding/json writes, and the largest counter.
func codecResults(tb testing.TB) []system.Results {
	var eval system.Results
	if err := json.Unmarshal(evalCellResult(tb), &eval); err != nil {
		tb.Fatal(err)
	}
	return []system.Results{
		eval,
		{Name: "bs", Config: "baseline", Cycles: 1},
		{Name: "bs", Config: "baseline", Stats: map[string]uint64{}},
		{
			Name:   "ctl\b\f\n\r\t\x00\x1f\x7f",
			Config: "quote\" backslash\\ slash/ <html> & \u2028 \u2029 é😀",
			Stats: map[string]uint64{
				"\x01":                 1,
				"<":                    2,
				"a&b":                  3,
				"line\u2028para\u2029": 4,
				"q\"\\":                5,
				"plain.ascii":          6,
				"utf8.é":               7,
				"utf8.😀.tail":          8,
			},
		},
		{Name: "max", Cycles: math.MaxUint64, NoCBytes: math.MaxUint64,
			Stats: map[string]uint64{"max": math.MaxUint64, "zero": 0}},
	}
}

// smallResult is a canonical result small enough to truncate at every
// byte.
const smallResult = `{"Name":"bs","Config":"baseline","Cycles":12,"MemReads":3,"MemWrites":4,"ProbesSent":5,"LLCHits":6,"NoCBytes":7,"Stats":{"a.x":1,"b.y":2}}`

// nearMisses are inputs json.Unmarshal reads but EncodeResult never
// writes, built from the real eval-cell result and a small one.
func nearMisses(tb testing.TB) [][]byte {
	eval := string(evalCellResult(tb))
	small := smallResult
	miss := []string{
		strings.Replace(small, `"Cycles":12`, `"Cycles":012`, 1),
		strings.Replace(small, `"Stats":{"a.x":1`, `"Stats":{"a.x":00`, 1),
		strings.Replace(small, `"Cycles":12`, `"Cycles":-12`, 1),
		strings.Replace(small, `"Cycles":12`, `"Cycles":12.0`, 1),
		strings.Replace(small, `"Cycles":12`, `"Cycles":1e1`, 1),
		strings.Replace(small, `"Cycles":12`, `"Cycles":18446744073709551616`, 1),
		strings.Replace(small, `"Cycles":12`, `"Cycles":99999999999999999999`, 1),
		strings.Replace(small, `,"MemReads"`, `, "MemReads"`, 1),
		" " + small,
		small + "\n",
		small + "{}",
		strings.Replace(small, `{"a.x":1,"b.y":2}`, `{"b.y":2,"a.x":1}`, 1),
		strings.Replace(small, `{"a.x":1,"b.y":2}`, `{"a.x":1,"a.x":2}`, 1),
		strings.Replace(small, `{"a.x":1,"b.y":2}`, `{"a.x":1,}`, 1),
		strings.Replace(small, `"Name":"bs"`, `"Name":"a<b"`, 1),
		strings.Replace(small, `"Name":"bs"`, `"Name":"a\u003Cb"`, 1),
		strings.Replace(small, `"Name":"bs"`, `"Name":"\u0062s"`, 1),
		strings.Replace(small, `"Name":"bs"`, `"Name":"b\/s"`, 1),
		strings.Replace(small, `"Name":"bs"`, `"Name":"\u0008"`, 1),
		strings.Replace(small, `"Name":"bs"`, `"Name":"`+"\u2028"+`"`, 1),
		strings.Replace(small, `"Name":"bs"`, `"Name":"`+"\xff"+`"`, 1),
		strings.Replace(small, `"Name":"bs"`, `"Name":"\ud800"`, 1),
		strings.Replace(small, `"Name":"bs"`, `"Name":"`+"\t"+`"`, 1),
		strings.Replace(small, `"Name":"bs"`, `"name":"bs"`, 1),
		strings.Replace(small, `"Name":"bs","Config":"baseline"`, `"Config":"baseline","Name":"bs"`, 1),
		strings.Replace(small, `,"LLCHits":6`, ``, 1),
		strings.Replace(small, `"Stats":{"a.x":1,"b.y":2}`, `"Stats":{"a.x":1,"b.y":2},"Extra":1`, 1),
		strings.Replace(eval, `"core1.ops"`, `"core0.ops"`, 1),
	}
	// Truncation inside every field.
	for _, key := range []string{"Name", "Config", "Cycles", "MemReads", "MemWrites",
		"ProbesSent", "LLCHits", "NoCBytes", "Stats"} {
		i := strings.Index(eval, `"`+key+`":`)
		miss = append(miss, eval[:i+len(key)+4])
	}
	stats := strings.Index(eval, `"Stats":{`)
	miss = append(miss, eval[:stats+12], eval[:strings.Index(eval[stats:], ":0,")+stats+2], eval[:len(eval)-1])
	out := make([][]byte, len(miss))
	for i, m := range miss {
		out[i] = []byte(m)
	}
	return out
}

// TestResultRoundTrip: DecodeResult(EncodeResult(r)) is r for every
// codec result, nil and empty Stats included.
func TestResultRoundTrip(t *testing.T) {
	for _, want := range codecResults(t) {
		b, err := EncodeResult(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResult(b)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip of %s:\n got %#v\nwant %#v", b, got, want)
		}
	}
	if b := evalCellResult(t); !bytes.Equal(mustEncode(t, mustDecode(t, b)), b) {
		t.Error("the eval-cell result does not re-encode to its own bytes")
	}
}

// TestDecodeResultRejectsNearMisses: every input that is not exactly
// what EncodeResult writes is corrupt, truncations of a small result at
// every byte included.
func TestDecodeResultRejectsNearMisses(t *testing.T) {
	miss := nearMisses(t)
	mustDecode(t, []byte(smallResult))
	for n := range len(smallResult) {
		miss = append(miss, []byte(smallResult[:n]))
	}
	for _, b := range miss {
		if _, err := DecodeResult(b); err == nil || !strings.Contains(err.Error(), "corrupt result encoding") {
			t.Errorf("DecodeResult(%q) = %v, want a corrupt-encoding error", b, err)
		}
	}
}

// TestEncodeResultRejectsInvalidUTF8: json.Marshal would rewrite an
// invalid string to U+FFFD, so the stored bytes would decode to a
// different result.
func TestEncodeResultRejectsInvalidUTF8(t *testing.T) {
	for _, r := range []system.Results{
		{Name: "b\xffs"},
		{Config: "\xc3"},
		{Stats: map[string]uint64{"ok": 1, "core\xfe.ops": 2}},
	} {
		if b, err := EncodeResult(r); err == nil {
			t.Errorf("EncodeResult(%#v) = %s, want an error", r, b)
		}
	}
}

// TestDecodeResultKeyLayoutsConcurrently: decodes of two key layouts
// from several goroutines at once, each replacing the shared key list
// the other reuses, all return their own keys.
func TestDecodeResultKeyLayoutsConcurrently(t *testing.T) {
	evalBytes := evalCellResult(t)
	eval := mustDecode(t, evalBytes)
	other := system.Results{Name: "x", Config: "y", Stats: map[string]uint64{}}
	for k, v := range eval.Stats {
		other.Stats["banked."+k] = v + 1
	}
	otherBytes := mustEncode(t, other)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				b, want := evalBytes, eval
				if (g+i)%2 == 1 {
					b, want = otherBytes, other
				}
				got, err := DecodeResult(b)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d decode %d: wrong result (err %v)", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodedResultRetainedHeap: a kept eval-cell result holds at most
// 4 KB of heap. Decoders that copied every key per result held ≈5.7 KB
// (encoding/json) to 6.2 KB, and callers such as a repeated figure run
// keep every result they decode.
func TestDecodedResultRetainedHeap(t *testing.T) {
	b := evalCellResult(t)
	mustDecode(t, b) // the key list every later decode reuses
	const n = 2000
	kept := make([]system.Results, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range kept {
		kept[i] = mustDecode(t, b)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
	runtime.KeepAlive(kept)
	t.Logf("%.0f B retained per decoded eval-cell result", per)
	if per > 4096 {
		t.Errorf("a decoded eval-cell result retains %.0f B of heap, want at most 4096", per)
	}
}

// FuzzDecodeResult holds DecodeResult to encoding/json both ways: no
// input panics; every input it accepts is exactly what EncodeResult
// writes for the result it returns, which is what json.Unmarshal
// returns; and every input json.Unmarshal reads and EncodeResult
// writes back unchanged is accepted.
func FuzzDecodeResult(f *testing.F) {
	for _, r := range codecResults(f) {
		f.Add(mustEncode(f, r))
	}
	for _, b := range nearMisses(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeResult(b)
		var want system.Results
		canonical := json.Unmarshal(b, &want) == nil
		if canonical {
			enc, err := EncodeResult(want)
			canonical = err == nil && bytes.Equal(enc, b)
		}
		if err != nil {
			if canonical {
				t.Fatalf("DecodeResult rejected canonical bytes %q: %v", b, err)
			}
			return
		}
		if !canonical {
			t.Fatalf("DecodeResult accepted %q, which EncodeResult does not write", b)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeResult(%q):\n got %#v\nwant %#v (json.Unmarshal)", b, got, want)
		}
	})
}

// encodeAsJSON checks EncodeResult against its oracle: for a result
// json.Marshal encodes without rewriting a string, the same bytes in a
// buffer of exactly their length; for any other, an error.
func encodeAsJSON(t *testing.T, r system.Results) {
	t.Helper()
	got, err := EncodeResult(r)
	valid := utf8.ValidString(r.Name) && utf8.ValidString(r.Config)
	for k := range r.Stats {
		valid = valid && utf8.ValidString(k)
	}
	if !valid {
		if err == nil {
			t.Fatalf("EncodeResult(%#v) = %s, want an error", r, got)
		}
		return
	}
	want, jerr := json.Marshal(r)
	if err != nil || jerr != nil {
		t.Fatalf("EncodeResult(%#v): %v (json.Marshal: %v)", r, err, jerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeResult(%#v):\n got %s\nwant %s (json.Marshal)", r, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("EncodeResult returned %d bytes in a buffer of %d", len(got), cap(got))
	}
}

// TestEncodeResultIsJSON: every codec result encodes as json.Marshal
// encodes it, into a buffer of exactly its length.
func TestEncodeResultIsJSON(t *testing.T) {
	for _, r := range codecResults(t) {
		encodeAsJSON(t, r)
	}
}

// FuzzEncodeResult holds EncodeResult to json.Marshal on results with
// arbitrary strings, counters and Stats keys, nil Stats included.
func FuzzEncodeResult(f *testing.F) {
	for _, r := range codecResults(f) {
		keys := make([]string, 0, len(r.Stats))
		for k := range r.Stats {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		k1, k2 := "", ""
		var v1, v2 uint64
		if len(keys) > 0 {
			k1, v1 = keys[0], r.Stats[keys[0]]
			k2, v2 = keys[len(keys)-1], r.Stats[keys[len(keys)-1]]
		}
		f.Add(r.Name, r.Config, r.Cycles, r.NoCBytes, k1, v1, k2, v2, r.Stats == nil)
	}
	f.Add("a\xffb", "baseline", uint64(1), uint64(2), "k", uint64(3), "k\xc0", uint64(4), false)
	f.Fuzz(func(t *testing.T, name, config string, cycles, nocBytes uint64, k1 string, v1 uint64, k2 string, v2 uint64, nilStats bool) {
		r := system.Results{Name: name, Config: config, Cycles: cycles, MemReads: cycles / 3,
			MemWrites: v1, ProbesSent: v2, LLCHits: nocBytes / 7, NoCBytes: nocBytes}
		if !nilStats {
			r.Stats = map[string]uint64{k1: v1, k2: v2, k1 + "." + k2: cycles}
		}
		encodeAsJSON(t, r)
	})
}

// BenchmarkEncodeResult encodes one eval-cell result, as every
// simulated job does before its result is cached. The benchgate
// baseline gates its allocations: the sorted key list and the result.
func BenchmarkEncodeResult(b *testing.B) {
	r := mustDecode(b, evalCellResult(b))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		encodeSink, _ = EncodeResult(r)
	}
}

var encodeSink []byte

// BenchmarkDecodeResult decodes one eval-cell result, as every warm
// cache hit a figure run or the benchmark harness reads does.
func BenchmarkDecodeResult(b *testing.B) {
	enc := evalCellResult(b)
	mustDecode(b, enc)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		decodeSink, _ = DecodeResult(enc)
	}
}

var decodeSink system.Results

func mustEncode(tb testing.TB, r system.Results) []byte {
	tb.Helper()
	b, err := EncodeResult(r)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func mustDecode(tb testing.TB, b []byte) system.Results {
	tb.Helper()
	r, err := DecodeResult(b)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}
