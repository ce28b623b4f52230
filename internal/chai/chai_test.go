package chai

import (
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/system"
)

func testConfig(opts core.Options) system.Config {
	cfg := system.Default()
	cfg.Protocol = opts
	// Small caches so victims and capacity effects occur at scale 1.
	cfg.CorePair.L2SizeBytes = 32 << 10
	cfg.CorePair.L1DSizeBytes = 4 << 10
	cfg.CorePair.L1ISizeBytes = 4 << 10
	cfg.GPU.TCCSizeBytes = 32 << 10
	cfg.GPU.TCPSizeBytes = 4 << 10
	cfg.Geometry.LLCSizeBytes = 512 << 10
	cfg.Geometry.DirEntries = 8 << 10
	return cfg
}

func TestNamesAndLookup(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("names = %v, want 10 benchmarks", names)
	}
	for _, n := range names {
		if _, err := ByName(n, DefaultParams()); err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
	}
	if _, err := ByName("nope", DefaultParams()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if len(All(DefaultParams())) != 10 {
		t.Fatal("All() incomplete")
	}
}

func TestCollaborativeFiveIsSubset(t *testing.T) {
	all := map[string]bool{}
	for _, n := range Names() {
		all[n] = true
	}
	five := CollaborativeFive()
	if len(five) != 5 {
		t.Fatalf("collaborative five = %v", five)
	}
	for _, n := range five {
		if !all[n] {
			t.Fatalf("%q is not a benchmark", n)
		}
	}
}

func TestParamsNormalization(t *testing.T) {
	w, err := ByName("bs", Params{Scale: 0, CPUThreads: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Threads) != 8 {
		t.Fatalf("threads = %d, want default 8", len(w.Threads))
	}
}

// TestEveryBenchmarkVerifiesUnderKeyVariants runs the whole suite under
// the baseline and the paper's full enhancement stack, checking the
// computed results and the coherence invariants — the protocol variants
// must be functionally transparent.
func TestEveryBenchmarkVerifiesUnderKeyVariants(t *testing.T) {
	variants := []core.Options{
		{},
		{EarlyDirtyResponse: true},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	}
	for _, name := range Names() {
		for _, opts := range variants {
			name, opts := name, opts
			t.Run(name+"/"+opts.Named(), func(t *testing.T) {
				w, err := ByName(name, Params{Scale: 1, CPUThreads: 8})
				if err != nil {
					t.Fatal(err)
				}
				s := system.New(testConfig(opts))
				if _, err := s.Run(w); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBenchmarksScale checks that the scale knob actually grows the
// work (more simulated activity at scale 2).
func TestBenchmarksScale(t *testing.T) {
	run := func(scale int) uint64 {
		w, err := ByName("pad", Params{Scale: scale, CPUThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		s := system.New(testConfig(core.Options{}))
		res, err := s.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats["mem.reads"] + res.Stats["mem.writes"]
	}
	if small, big := run(1), run(2); big <= small {
		t.Fatalf("scale 2 (%d mem accesses) not larger than scale 1 (%d)", big, small)
	}
}

// TestFewerCPUThreads: benchmarks adapt to thread-count configuration
// (CHAI's thread-count parameterizability, §V).
func TestFewerCPUThreads(t *testing.T) {
	for _, name := range []string{"sc", "hsti", "trns", "tq"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := ByName(name, Params{Scale: 1, CPUThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			s := system.New(testConfig(core.Options{}))
			if _, err := s.Run(w); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExtendedBenchmarksVerify runs the four benchmarks the paper could
// not execute under gem5 (§V) — available here — under the baseline and
// the full enhancement stack.
func TestExtendedBenchmarksVerify(t *testing.T) {
	variants := []core.Options{
		{},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	}
	for _, name := range ExtendedNames() {
		for _, opts := range variants {
			name, opts := name, opts
			t.Run(name+"/"+opts.Named(), func(t *testing.T) {
				w, err := ByName(name, Params{Scale: 1, CPUThreads: 8})
				if err != nil {
					t.Fatal(err)
				}
				s := system.New(testConfig(opts))
				if _, err := s.Run(w); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	if len(AllNames()) != 14 {
		t.Fatalf("full suite = %d benchmarks, want 14", len(AllNames()))
	}
}

// TestVerifyCatchesAFlippedOutput: Verify checks each workload's output
// against inputs it reads back from functional memory (read-only
// inputs, which a run leaves intact) or regenerates from the seed
// (inputs the run overwrites), not against a kept copy. Flipping one
// output word after a passing run must fail it.
func TestVerifyCatchesAFlippedOutput(t *testing.T) {
	// The word index from dataBase of one output word of each workload
	// at scale 1.
	outputs := map[string]int{
		"bs":   16,            // out[0,0], past the 16 control points
		"cedd": 2 * 4 * 1600,  // out of frame 0, past in and tmp
		"pad":  0,             // row 0 of the padded matrix
		"sc":   16384,         // out[0], past the input
		"hsti": 8192 + 3,      // bin 3, past the input
		"hsto": 8192 + 200,    // bin 200, a GPU-owned one
		"trns": 64,            // position dest(1), which the run wrote
		"rscd": 4096 + 2 + 24, // the best score, past data, model and counts
		"rsct": 2048 + 8,      // the best score, past data and the counter
		"cedt": 4 * 1600,      // out of pixel 0, past the input
	}
	for _, name := range AllNames() {
		idx, ok := outputs[name]
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			w, err := ByName(name, Params{Scale: 1, CPUThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			s := system.New(testConfig(core.Options{}))
			if _, err := s.Run(w); err != nil {
				t.Fatal(err)
			}
			a := wa(dataBase, idx)
			s.FuncMem.Write(a, s.FuncMem.Read(a)^1)
			if err := w.Verify(s.FuncMem); err == nil {
				t.Fatalf("Verify passed with the word at %#x flipped", uint64(a))
			}
		})
	}
}
