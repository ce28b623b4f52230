package main

import "testing"

// TestReportCellsValidate needs no simulation: every cell the full
// report reads is a valid engine spec, and the report's cell counts are
// pinned. Sections share cells (Figs. 4 and 6 share their baselines,
// and ablation and HeteroSync rows repeat Fig. 6 cells), so fewer cells
// run than are read.
func TestReportCellsValidate(t *testing.T) {
	cells, declared := declare(everything)
	if declared != 170 || len(cells) != 137 {
		t.Fatalf("full report reads %d cells, %d distinct; want 170 and 137", declared, len(cells))
	}
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c, err)
		}
	}
}
