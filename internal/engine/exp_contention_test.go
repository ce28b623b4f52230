package engine

import (
	"fmt"
	"os"
	"testing"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/sim"
	"hscsim/internal/system"
)

// TestExpMemContention is a manual experiment (HSCSIM_EXP=1) probing how
// memory-channel contention exposes the §III-B/C speedups.
func TestExpMemContention(t *testing.T) {
	if os.Getenv("HSCSIM_EXP") == "" {
		t.Skip("manual experiment")
	}
	for _, cpa := range []sim.Tick{8, 16, 32} {
		fmt.Printf("=== CyclesPerAccess=%d ===\n", cpa)
		for _, bench := range []string{"hsto", "trns", "cedd", "sc", "tq"} {
			run := func(opts core.Options) uint64 {
				cfg := EvalConfig(opts)
				cfg.Mem.CyclesPerAccess = cpa
				w, _ := chai.ByName(bench, EvalParams())
				s := system.New(cfg)
				res, err := s.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				return res.Cycles
			}
			base := run(core.Options{})
			nwb := run(core.Options{NoWBCleanVicToMem: true})
			wb := run(core.Options{LLCWriteBack: true, UseL3OnWT: true})
			fmt.Printf("%-6s base=%-9d noWB=%+.2f%% llcWB+L3=%+.2f%%\n", bench, base,
				100*(float64(base)-float64(nwb))/float64(base),
				100*(float64(base)-float64(wb))/float64(base))
		}
	}
}
