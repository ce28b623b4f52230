package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/heterosync"
	"hscsim/internal/system"
)

// TestValidateMatchesBuildableTCCCounts: every TCC count Validate
// accepts builds a system, and the counts that cannot split the TCC
// into power-of-two banks are rejected up front instead of panicking
// the job later.
func TestValidateMatchesBuildableTCCCounts(t *testing.T) {
	for _, base := range []string{ConfigEval, ConfigFull} {
		for n := 1; n <= 16; n++ {
			sp := Spec{Bench: "bs", Config: base, Topology: TopologySpec{NumTCCs: n}}
			if base == ConfigEval && n == 3 {
				if err := sp.Validate(); err == nil {
					t.Fatal("numTCCs=3 on eval: Validate accepted a TCC that splits into 3 banks")
				}
			}
			if sp.Validate() != nil {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d", base, n), func(t *testing.T) {
				cfg, err := buildConfig(sp.Normalized())
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Validate accepted numTCCs=%d, but system.New panicked: %v", n, r)
					}
				}()
				system.New(cfg)
			})
		}
	}
}

// TestValidateMatchesBuildableDirGeometry: every directory geometry
// Validate accepts builds a system. Under tracking, entry counts whose
// per-bank directory cache has no power-of-two set count are rejected
// up front instead of panicking the job later, and so are bank counts
// that leave an LLC bank without sets.
func TestValidateMatchesBuildableDirGeometry(t *testing.T) {
	for _, base := range []string{ConfigEval, ConfigFull} {
		for _, tracking := range []string{"", "owner"} {
			for _, banks := range []int{1, 2, 4, 1024} {
				for entries := 1; entries <= 16; entries++ {
					sp := Spec{Bench: "bs", Config: base, Protocol: ProtocolSpec{Tracking: tracking},
						Topology: TopologySpec{DirBanks: banks, DirEntries: entries}}
					if sp.Validate() != nil {
						continue
					}
					cfg, err := buildConfig(sp.Normalized())
					if err != nil {
						t.Fatal(err)
					}
					if r := newSystemPanic(cfg); r != nil {
						t.Errorf("Validate accepted %s/tracking=%q/dirBanks=%d/dirEntries=%d, but system.New panicked: %v",
							base, tracking, banks, entries, r)
					}
				}
			}
		}
	}
	for _, sp := range []Spec{
		{Bench: "bs", Config: ConfigEval, Protocol: ProtocolSpec{Tracking: "owner"}, Topology: TopologySpec{DirEntries: 3}},
		{Bench: "bs", Config: ConfigEval, Topology: TopologySpec{DirBanks: 1024}},
	} {
		if sp.Validate() == nil {
			t.Errorf("%s/tracking=%q with %+v: Validate accepted a directory geometry system.New cannot build",
				sp.Config, sp.Protocol.Tracking, sp.Topology)
		}
	}
}

// TestValidateMatchesBuildableProbeTargets: every CorePair and TCC
// count Validate accepts builds a system. Under tracking, more probe
// targets than a directory entry's sharer bitmap holds are rejected up
// front; without tracking only MaxCorePairs limits the count.
func TestValidateMatchesBuildableProbeTargets(t *testing.T) {
	for _, tracking := range []string{"", "owner", "owner+sharers"} {
		for _, topo := range []TopologySpec{
			{NumCorePairs: 63},
			{NumCorePairs: 64},
			{NumCorePairs: 62, NumTCCs: 2},
			{NumCorePairs: 63, NumTCCs: 2},
			{NumCorePairs: 200},
		} {
			sp := Spec{Bench: "bs", Protocol: ProtocolSpec{Tracking: tracking}, Topology: topo}
			targets := topo.NumCorePairs + max(topo.NumTCCs, 1)
			err := sp.Validate()
			if topo.NumCorePairs > MaxCorePairs || tracking != "" && targets > core.MaxTrackedTargets {
				if err == nil {
					t.Errorf("tracking=%q with %+v: Validate accepted %d probe targets", tracking, topo, targets)
				}
				continue
			}
			if err != nil {
				t.Errorf("tracking=%q with %+v: %v", tracking, topo, err)
				continue
			}
			cfg, err := buildConfig(sp.Normalized())
			if err != nil {
				t.Fatal(err)
			}
			if r := newSystemPanic(cfg); r != nil {
				t.Errorf("Validate accepted tracking=%q with %+v, but system.New panicked: %v", tracking, topo, r)
			}
		}
	}
	cfg := EvalConfig(core.Options{Tracking: core.TrackOwnerSharers})
	cfg.NumCorePairs = core.MaxTrackedTargets
	if newSystemPanic(cfg) == nil {
		t.Errorf("system.New built a tracking directory over %d probe targets", core.MaxTrackedTargets+1)
	}
}

// TestValidateMatchesRunnableThreads: Normalized sets threads to the
// number of CPU threads the workload starts, no spec Validate accepts
// starts more of them than its topology has cores, so none fails in
// system.Run with "wants N threads", and every CHAI spec asking for at
// most one thread per core is accepted. HeteroSync ignores threads.
func TestValidateMatchesRunnableThreads(t *testing.T) {
	for _, bench := range append(chai.AllNames(), heterosync.Names()...) {
		for _, pairs := range []int{1, 2, 4} {
			cores := 2 * pairs
			for threads := 1; threads <= 9; threads++ {
				sp := Spec{Bench: bench, Scale: 1, Threads: threads, Topology: TopologySpec{NumCorePairs: pairs}}
				w, err := buildWorkload(sp)
				if err != nil {
					t.Fatal(err)
				}
				if n := sp.Normalized().Threads; len(w.Threads) != n {
					t.Errorf("%s threads=%d starts %d CPU threads, Normalized says %d", bench, threads, len(w.Threads), n)
				}
				err = sp.Validate()
				if err == nil && len(w.Threads) > cores {
					t.Errorf("%s threads=%d numCorePairs=%d: Validate accepted %d threads on %d cores",
						bench, threads, pairs, len(w.Threads), cores)
				}
				if err != nil && threads <= cores {
					t.Errorf("%s threads=%d numCorePairs=%d: %v", bench, threads, pairs, err)
				}
			}
		}
	}
	for _, sp := range []Spec{
		{Bench: "bs", Threads: 9}, // the eval topology has 8 cores
		{Bench: "bs", Threads: 3, Topology: TopologySpec{NumCorePairs: 1}},
	} {
		if sp.Validate() == nil {
			t.Errorf("Validate accepted %s", sp.Canonical())
		}
	}
}

// TestIgnoredThreadsShareOneCacheEntry: specs that differ only in a
// thread count their workload does not start simulate the same run, so
// they hash alike. Each runs with the threads it spells, not the
// normalized count, so the shared hash is checked against the runs.
func TestIgnoredThreadsShareOneCacheEntry(t *testing.T) {
	for _, c := range []struct {
		bench string
		a, b  int
	}{{"rscd", 2, 8}, {"bfs", 1, 2}, {"hs_mutex", 2, 8}} {
		sa := Spec{Bench: c.bench, Scale: 1, Threads: c.a}
		sb := Spec{Bench: c.bench, Scale: 1, Threads: c.b}
		if sa.Hash() != sb.Hash() {
			t.Errorf("%s: threads %d and %d hash differently: %s vs %s", c.bench, c.a, c.b, sa.Canonical(), sb.Canonical())
		}
		if !bytes.Equal(runAsSpelled(t, sa), runAsSpelled(t, sb)) {
			t.Errorf("%s: threads %d and %d ran differently", c.bench, c.a, c.b)
		}
	}
}

// runAsSpelled is Execute without Normalized: the workload starts from
// the threads sp asks for.
func runAsSpelled(t *testing.T, sp Spec) []byte {
	t.Helper()
	s, w, err := Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestValidateDoesNotBuildWorkload: Validate resolves the bench by name
// instead of building the workload, whose constructors allocate per
// thread, so the most threads it accepts (two per core on MaxCorePairs
// pairs) and a spec asking for 65 536, which the size limits reject,
// cost what one asking for 8 does.
func TestValidateDoesNotBuildWorkload(t *testing.T) {
	most := Spec{Bench: "bs", Threads: 2 * MaxCorePairs, Topology: TopologySpec{NumCorePairs: MaxCorePairs}}
	if err := most.Validate(); err != nil {
		t.Fatal(err)
	}
	huge := Spec{Bench: "bs", Threads: 1 << 16, Topology: TopologySpec{NumCorePairs: 1 << 15}}
	if huge.Validate() == nil {
		t.Fatalf("Validate accepted %s", huge.Canonical())
	}
	for _, sp := range []Spec{most, huge} {
		if n := testing.AllocsPerRun(5, func() { _ = sp.Validate() }); n >= 100 {
			t.Errorf("Validate made %.0f allocations for threads=%d, want fewer than 100", n, sp.Threads)
		}
	}
}

// TestValidateAllocatesNothing: Validate looks the benchmark up
// without building the suite's name lists, which it joins only for an
// unknown name's error, so validating a POST /jobs spec allocates
// nothing.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, sp := range []Spec{EvalSpec("hsti", core.Options{}), {Bench: "lulesh", Scale: 2}} {
		if n := testing.AllocsPerRun(20, func() { _ = sp.Validate() }); n != 0 {
			t.Errorf("Validate(%s) made %.0f allocations, want 0", sp.Canonical(), n)
		}
	}
	if err := (Spec{Bench: "nope"}).Validate(); err == nil || !strings.Contains(err.Error(), "bs, cedd") || !strings.Contains(err.Error(), "lulesh") {
		t.Fatalf("unknown bench: %v, want an error listing the suites", err)
	}
}

// validateHeapBudget bounds what building a spec at the size limits
// allocates: the system, the workload and its Setup of the inputs. trns
// at MaxScale is the largest, at 116.1 MiB (its matrix grows with the
// square of the scale, and its simulated memory is all of it: no
// workload keeps a Go copy of its inputs, which took it to 212.1 MiB);
// the budget adds a 10 % margin.
const validateHeapBudget = 128 << 20

// TestValidateBoundsSizes: Validate bounds every size field that sets
// what a job allocates. Specs past a limit are rejected, among them
// cedd at scale 10^6 (≈51 GB of inputs) and 2^30 CorePairs, CUs or
// directory entries. Every size a client in this repository asks for
// is still accepted (cmd/hscfig's TestReportCellsValidate checks each
// of hscfig's cells). A spec at the limits builds within
// validateHeapBudget.
func TestValidateBoundsSizes(t *testing.T) {
	tracked := ProtocolFromOptions(namedVariants[len(namedVariants)-1])
	t.Run("rejects", func(t *testing.T) {
		for _, sp := range []Spec{
			{Bench: "cedd", Scale: 1_000_000},
			{Bench: "bs", Topology: TopologySpec{NumCorePairs: 1 << 30}},
			{Bench: "bs", Topology: TopologySpec{NumCUs: 1 << 30}},
			{Bench: "bs", Protocol: tracked, Topology: TopologySpec{DirEntries: 1 << 30}},
			{Bench: "bs", Scale: MaxScale + 1},
			{Bench: "bs", Topology: TopologySpec{NumCorePairs: MaxCorePairs + 1}},
			{Bench: "bs", Topology: TopologySpec{NumCUs: MaxCUs + 1}},
			{Bench: "bs", Protocol: tracked, Topology: TopologySpec{DirEntries: 2 * MaxDirEntries}},
		} {
			if sp.Validate() == nil {
				t.Errorf("Validate accepted %s", sp.Canonical())
			}
		}
	})
	t.Run("accepts", func(t *testing.T) {
		var specs []Spec
		for _, b := range append(chai.AllNames(), heterosync.Names()...) {
			for _, o := range namedVariants {
				specs = append(specs, EvalSpec(b, o),
					Spec{Bench: b, Scale: 1, Config: ConfigFull, Protocol: ProtocolFromOptions(o)})
			}
		}
		// cmd/hscsweep's grid, the ablations' small directory, perfbench's
		// gpu-sync cells, the largest topologies the tests build, and
		// every limit itself.
		for _, p := range []SweepPoint{
			{Topology: TopologySpec{NumCorePairs: 1}, Threads: 2},
			{Topology: TopologySpec{NumCorePairs: 4}, Threads: 8},
			{Topology: TopologySpec{NumCUs: 8}, Threads: 8},
			{Topology: TopologySpec{DirBanks: 4}, Threads: 8},
			{Topology: TopologySpec{NumTCCs: 2}, Threads: 8},
			{Topology: TopologySpec{StoreBufferSize: 16}, Threads: 8},
			{Topology: TopologySpec{StoreBufferZero: true}, Threads: 8},
			{Topology: TopologySpec{DirEntries: 512}},
		} {
			specs = append(specs, Spec{Bench: "tq", Scale: 1, Threads: p.Threads, Protocol: tracked, Topology: p.Topology})
		}
		for _, b := range heterosync.Names() {
			specs = append(specs, Spec{Bench: b, Scale: 48, Protocol: tracked, Topology: TopologySpec{GPUWriteBackL2: true}})
		}
		specs = append(specs,
			Spec{Bench: "bs", Topology: TopologySpec{NumCorePairs: 64}},
			Spec{Bench: "bs", Protocol: tracked, Topology: TopologySpec{NumCorePairs: 63}},
			Spec{Bench: "trns", Scale: MaxScale},
			Spec{Bench: "bs", Config: ConfigFull, Topology: TopologySpec{NumCorePairs: MaxCorePairs, NumCUs: MaxCUs}},
			Spec{Bench: "bs", Config: ConfigFull, Protocol: tracked, Topology: TopologySpec{DirEntries: MaxDirEntries}},
		)
		for _, sp := range specs {
			if err := sp.Validate(); err != nil {
				t.Errorf("%s: %v", sp.Canonical(), err)
			}
		}
	})
	t.Run("heap", func(t *testing.T) {
		specs := []Spec{
			{Bench: "bs", Config: ConfigFull, Topology: TopologySpec{NumCorePairs: MaxCorePairs, NumCUs: MaxCUs, DirEntries: MaxDirEntries}},
			{Bench: "bs", Config: ConfigFull, Protocol: tracked,
				Topology: TopologySpec{NumCorePairs: core.MaxTrackedTargets - 1, NumCUs: MaxCUs, DirEntries: MaxDirEntries}},
		}
		for _, b := range append(chai.AllNames(), heterosync.Names()...) {
			specs = append(specs, Spec{Bench: b, Scale: MaxScale})
		}
		for _, sp := range specs {
			if err := sp.Validate(); err != nil {
				t.Fatalf("%s: %v", sp.Canonical(), err)
			}
			if n := buildAllocBytes(t, sp.Normalized()); n > validateHeapBudget {
				t.Errorf("%s: building it allocates %d MB, over the %d MB budget",
					sp.Canonical(), n>>20, validateHeapBudget>>20)
			}
		}
	})
}

// buildAllocBytes returns the bytes allocated while building sp's
// system and workload and running the workload's Setup.
func buildAllocBytes(t *testing.T, sp Spec) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, w, err := Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	if w.Setup != nil {
		w.Setup(s.FuncMem)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzSpecCanonical decodes arbitrary bytes into a Spec and appends
// four raw strings to its string fields, as a library caller can set
// them: invalid UTF-8 and bytes JSON escapes included. No input may
// panic. For every spec, Canonical is what json.Marshal writes for the
// normalized spec, and Hash is the SHA-256 of Version and those bytes.
// For every spec Validate accepts, Normalized is idempotent and the
// canonical encoding decodes back to the same canonical bytes and
// hash: the cache key is a function of the spec, not of how a client
// spelled it.
func FuzzSpecCanonical(f *testing.F) {
	for _, sp := range []Spec{
		EvalSpec("tq", core.Options{}),
		EvalSpec("hsti", core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwnerSharers}),
		EvalSpec("hs_mutex", core.Options{LLCWriteBack: true, UseL3OnWT: true}),
		{Bench: "bs", Scale: 1, Threads: 2, Topology: TopologySpec{NumCorePairs: 2, DirBanks: 4, StoreBufferZero: true}},
		{Bench: "bs", Scale: 1, Threads: 2, Seed: -5},
		{Bench: "tq", Scale: 3, Threads: 4, Seed: 7, Config: ConfigFull,
			Protocol: ProtocolSpec{EarlyDirtyResponse: true, NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true,
				LLCWriteBack: true, UseL3OnWT: true, Tracking: "owner+sharers", DirRepl: "fewestSharers",
				LimitedPointers: 4, ReadOnlyElision: true},
			Topology: TopologySpec{NumCorePairs: 2, NumCUs: 8, NumTCCs: 2, DirBanks: 4, DirEntries: 512,
				StoreBufferSize: 16, GPUWriteBackL2: true, StoreBufferZero: true}},
	} {
		f.Add(sp.Canonical(), "", "", "", "")
	}
	f.Add([]byte(`{"bench":"bs","threads":9}`), "", "", "", "")
	f.Add([]byte(`{"bench":"bs","threads":3,"topology":{"numCorePairs":1}}`), "", "", "", "")
	f.Add([]byte(`{"bench":"bs","seed":-9223372036854775808,"scale":-1,"threads":-2}`), "", "", "", "")
	for _, odd := range []string{"<", "&", `\"`, `\u2028`, `\ud800`, `\\`, `\u00ff`} {
		f.Add([]byte(`{"bench":"b`+odd+`s","config":"`+odd+`","protocol":{"tracking":"`+odd+`","dirRepl":"`+odd+`"}}`), "", "", "", "")
	}
	for _, odd := range []string{"<", "&", `"`, `\`, "\u2028", "\u2029", "\xff", "a\xc3", "é<😀>"} {
		f.Add([]byte(`{}`), odd, odd, odd, odd)
		f.Add(EvalSpec("bs", core.Options{}).Canonical(), "bs"+odd, "", "owner"+odd, "")
	}
	f.Fuzz(func(t *testing.T, data []byte, bench, config, tracking, dirRepl string) {
		var sp Spec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		sp.Bench += bench
		sp.Config += config
		sp.Protocol.Tracking += tracking
		sp.Protocol.DirRepl += dirRepl
		want, err := json.Marshal(sp.Normalized())
		if err != nil {
			t.Fatal(err)
		}
		if got := sp.Canonical(); !bytes.Equal(got, want) {
			t.Fatalf("Canonical(%#v):\n got %s\nwant %s (json.Marshal)", sp, got, want)
		}
		sum := sha256.Sum256(append([]byte(Version+"\n"), want...))
		if got := sp.Hash(); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("Hash(%#v) = %s, want %x", sp, got, sum)
		}
		if sp.Validate() != nil {
			return
		}
		n := sp.Normalized()
		if n.Normalized() != n {
			t.Fatalf("Normalized is not idempotent: %+v -> %+v", n, n.Normalized())
		}
		canon := sp.Canonical()
		var back Spec
		if err := json.Unmarshal(canon, &back); err != nil {
			t.Fatalf("canonical form %s does not decode: %v", canon, err)
		}
		if got := back.Canonical(); string(got) != string(canon) {
			t.Fatalf("canonical form not stable:\n %s\n %s", canon, got)
		}
		if back.Hash() != sp.Hash() {
			t.Fatalf("hash changed across a canonical round trip: %s", canon)
		}
	})
}

// TestCanonicalCoversEveryField sets each field of Spec, ProtocolSpec
// and TopologySpec in turn, found by reflection, and holds Canonical to
// json.Marshal of the normalized spec. appendCanonical lists the fields
// by hand, so a field added without a line there would share the hash
// of the spec without it, and the cache would serve one spec's result
// for the other; the fuzz seeds set only the fields that exist today.
func TestCanonicalCoversEveryField(t *testing.T) {
	var leaves [][]int
	var walk func(typ reflect.Type, index []int)
	walk = func(typ reflect.Type, index []int) {
		for i := range typ.NumField() {
			at := append(slices.Clip(index), i)
			if f := typ.Field(i); f.Type.Kind() == reflect.Struct {
				walk(f.Type, at)
			} else {
				leaves = append(leaves, at)
			}
		}
	}
	walk(reflect.TypeFor[Spec](), nil)
	name := func(index []int) string {
		return fmt.Sprint(reflect.TypeFor[Spec]().FieldByIndex(index).Name, index)
	}
	setNonZero := func(sp *Spec, index []int) {
		switch f := reflect.ValueOf(sp).Elem().FieldByIndex(index); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(3)
		case reflect.String:
			f.SetString("x<&")
		default:
			t.Fatalf("field %s is a %s: give appendCanonical and this test a case for it", name(index), f.Kind())
		}
	}
	check := func(sp Spec, what string) {
		want, err := json.Marshal(sp.Normalized())
		if err != nil {
			t.Fatal(err)
		}
		if got := sp.Canonical(); !bytes.Equal(got, want) {
			t.Errorf("%s: Canonical\n got %s\nwant %s (json.Marshal)", what, got, want)
		}
	}
	var all Spec
	for _, index := range leaves {
		var one Spec
		setNonZero(&one, index)
		if reflect.ValueOf(one.Normalized()).FieldByIndex(index).IsZero() {
			t.Fatalf("field %s: Normalized clears the test value, so the check below shows nothing", name(index))
		}
		check(one, "only "+name(index)+" set")
		setNonZero(&all, index)
	}
	check(all, "every field set")
}

// TestSpecHashPinned pins full job hashes. Every on-disk cache entry is
// named by one, so a change to the canonical encoding that moves them
// orphans every stored result: such a change must bump Version instead
// and update these.
func TestSpecHashPinned(t *testing.T) {
	for _, c := range []struct {
		sp   Spec
		want string
	}{
		{EvalSpec("hsto", core.Options{}), "506038fee5054dc79eeb8055f90a308a5899eeff51d21fbc8a5a9a6ea1f4afb5"},
		{EvalSpec("trns", core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true}),
			"acbc9553cd50adb671a49b0774a7fdd1528515ec624437c34ea75aed406002bf"},
		{Spec{Bench: "bs", Scale: 1, Threads: 4}, "2372e50732d0827f54a6bf5276c6f2a200c91e5600e84826a7a38108569a1efa"},
	} {
		if got := c.sp.Hash(); got != c.want {
			t.Errorf("%s hashes to %s, want %s", c.sp.Canonical(), got, c.want)
		}
	}
}

// BenchmarkSpecHash hashes one evaluation cell's spec, as every Submit
// does. The benchgate baseline gates its allocations: the hex string.
func BenchmarkSpecHash(b *testing.B) {
	sp := EvalSpec("trns", core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true})
	b.ReportAllocs()
	for range b.N {
		hashSink = sp.Hash()
	}
}

var hashSink string

// newSystemPanic builds a system from cfg and returns what the build
// panicked with, or nil.
func newSystemPanic(cfg system.Config) (r any) {
	defer func() { r = recover() }()
	system.New(cfg)
	return nil
}
