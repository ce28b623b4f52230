// Command hscfig regenerates the paper's evaluation tables and figures
// (Tables I–III, Figs. 4–7), the energy estimate, the §V HeteroSync
// comparison, the extended CHAI suite and the ablations. With no
// section flags it regenerates everything.
//
// Every simulated number is one engine.Spec cell. The report is
// rendered twice: a first pass only records the cells the selected
// sections read; their distinct cells then run as one engine batch, in
// parallel on the worker pool and, with -cache, memoized across
// invocations; the second pass renders from the results.
//
// Usage:
//
//	hscfig [-fig4] [-fig5] [-fig6] [-fig7] [-table1] [-table2] [-table3] [-energy]
//	       [-heterosync] [-extended] [-ablations] [-csv file] [-cache dir] [-j N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/engine"
	"hscsim/internal/figures"
	"hscsim/internal/system"
)

// sections selects the parts of the report.
type sections struct {
	table1, table2, table3 bool
	fig4, fig5, fig6, fig7 bool
	energy, heterosync     bool
	extended, ablations    bool
}

// everything selects every section.
var everything = sections{true, true, true, true, true, true, true, true, true, true, true}

func main() {
	var sel sections
	flag.BoolVar(&sel.fig4, "fig4", false, "regenerate Fig. 4 (optimization speedups)")
	flag.BoolVar(&sel.fig5, "fig5", false, "regenerate Fig. 5 (memory accesses)")
	flag.BoolVar(&sel.fig6, "fig6", false, "regenerate Fig. 6 (state-tracking speedups)")
	flag.BoolVar(&sel.fig7, "fig7", false, "regenerate Fig. 7 (probe reduction)")
	flag.BoolVar(&sel.table1, "table1", false, "regenerate Table I (directory transitions) from the implementation")
	flag.BoolVar(&sel.table2, "table2", false, "print Table II (cache configurations)")
	flag.BoolVar(&sel.table3, "table3", false, "print Table III (system configuration)")
	flag.BoolVar(&sel.ablations, "ablations", false, "run the extra ablations (§III-B1, §VII)")
	flag.BoolVar(&sel.energy, "energy", false, "print the first-order energy estimate")
	flag.BoolVar(&sel.heterosync, "heterosync", false, "run the HeteroSync/Lulesh comparison (§V)")
	flag.BoolVar(&sel.extended, "extended", false, "run the 4 CHAI benchmarks gem5 could not (§V)")
	csvPath := flag.String("csv", "", "also export the Fig. 4/5 sweep as CSV to this file")
	cacheDir := flag.String("cache", "", "persist results in this directory (re-runs become cache hits)")
	jobs := flag.Int("j", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
	flag.Parse()
	if sel == (sections{}) {
		sel = everything
	}

	cells, declared := declare(sel)
	cache, err := engine.NewCache(0, *cacheDir)
	check(err)
	eng := engine.New(engine.Config{Workers: *jobs, Cache: cache})
	defer eng.Close()
	results := make(map[string]system.Results, len(cells))
	simulated := 0
	check(eng.Batch(context.Background(), cells, func(_ int, j *engine.Job, out []byte, err error) error {
		if err != nil {
			return err
		}
		if !j.Cached() {
			simulated++
		}
		results[j.Hash], err = engine.DecodeResult(out)
		return err
	}))

	report(os.Stdout, sel, *csvPath, func(sp engine.Spec) system.Results {
		res, ok := results[sp.Hash()]
		if !ok {
			panic("hscfig: a section read a cell it did not declare: " + sp.String())
		}
		return res
	})
	if len(cells) > 0 {
		fmt.Fprintf(os.Stderr, "hscfig: %d cells (%d declared), %d simulated, %d served from cache\n",
			len(cells), declared, simulated, len(cells)-simulated)
	}
}

// report renders the selected sections to out, reading every
// simulated number through get. With csvPath set it also exports the
// Fig. 4/5 sweep as CSV.
func report(out io.Writer, sel sections, csvPath string, get figures.Get) {
	if sel.table1 {
		core.WriteTableI(out)
	}
	if sel.table2 {
		figures.WriteTable2(out)
	}
	if sel.table3 {
		figures.WriteTable3(out)
	}
	if sel.fig4 || sel.fig5 {
		// Figs. 4 and 5 share the baseline/noWBcleanVic/llcWB cells;
		// read the union of their variants once.
		sw := figures.EvalSweep(get, chai.Names(), []core.Options{
			{},
			{EarlyDirtyResponse: true},
			{NoWBCleanVicToMem: true},
			{LLCWriteBack: true},
			{LLCWriteBack: true, UseL3OnWT: true},
		})
		if sel.fig4 {
			figures.WriteFig4(out, sw)
		}
		if sel.fig5 {
			figures.WriteFig5(out, sw)
		}
		if csvPath != "" {
			f, err := os.Create(csvPath)
			check(err)
			check(figures.WriteCSV(f, sw))
			check(f.Close())
			fmt.Fprintf(out, "\nCSV sweep written to %s\n", csvPath)
		}
	}
	if sel.fig6 || sel.fig7 || sel.energy {
		sw := figures.EvalSweep(get, chai.CollaborativeFive(), figures.Fig6Variants())
		if sel.fig6 {
			figures.WriteFig6(out, sw)
		}
		if sel.fig7 {
			figures.WriteFig7(out, sw)
		}
		if sel.energy {
			figures.WriteEnergy(out, sw)
		}
	}
	if sel.heterosync {
		figures.WriteHeteroSync(out, get)
	}
	if sel.extended {
		figures.WriteExtended(out, get)
	}
	if sel.ablations {
		figures.WriteAblations(out, get)
	}
}

// declare renders the selected sections without results and returns
// the distinct cells they read, in first-read order, and how many
// cells they read in all.
func declare(sel sections) (cells []engine.Spec, declared int) {
	seen := make(map[string]bool)
	report(io.Discard, sel, "", func(sp engine.Spec) system.Results {
		declared++
		if h := sp.Hash(); !seen[h] {
			seen[h] = true
			cells = append(cells, sp)
		}
		return system.Results{}
	})
	return cells, declared
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hscfig:", err)
		os.Exit(1)
	}
}
