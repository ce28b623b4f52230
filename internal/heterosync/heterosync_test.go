package heterosync

import (
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/system"
)

func testConfig(opts core.Options) system.Config {
	cfg := system.Default()
	cfg.Protocol = opts
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
	if len(Names()) != 5 {
		t.Fatalf("names = %v", Names())
	}
	for _, n := range Names() {
		if _, err := ByName(n, DefaultParams()); err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
	}
	if _, err := ByName("nope", DefaultParams()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if len(All(Params{})) != 5 {
		t.Fatal("All() incomplete")
	}
}

// TestSuiteVerifiesUnderKeyVariants: every microbenchmark's
// synchronization must be correct under the baseline and the full
// enhancement stack.
func TestSuiteVerifiesUnderKeyVariants(t *testing.T) {
	variants := []core.Options{
		{},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	}
	for _, name := range Names() {
		for _, opts := range variants {
			name, opts := name, opts
			t.Run(name+"/"+opts.Named(), func(t *testing.T) {
				w, err := ByName(name, DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				s := system.New(testConfig(opts))
				res, err := s.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				if res.Cycles == 0 {
					t.Fatal("no cycles")
				}
			})
		}
	}
}

// TestMutualExclusionHolds: the spin mutex and ticket lock protect a
// plain (non-atomic) load-increment-store, so any mutual-exclusion bug
// loses increments and fails verification. Run at a larger scale to
// give interleavings a chance.
func TestMutualExclusionHolds(t *testing.T) {
	for _, name := range []string{"hs_mutex", "hs_ticket"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := ByName(name, Params{Scale: 2})
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
