package engine

import (
	"fmt"
	"testing"

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
