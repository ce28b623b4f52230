package figures

import (
	"fmt"
	"io"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/engine"
)

// WriteAblations renders the paper's secondary design points: dropping
// clean victims from the LLC entirely (§III-B1), the limited-pointer
// sharer list (§IV-B), the future-work directory replacement policy
// (§VII) under normal and heavy directory pressure, read-only elision
// (§IX) and the distributed directory (§VII).
func WriteAblations(w io.Writer, get Get) {
	// sharers adds o's knobs to the tracked stack of Fig. 6.
	sharers := func(o core.Options) core.Options {
		o.Tracking, o.LLCWriteBack, o.UseL3OnWT = core.TrackOwnerSharers, true, true
		return o
	}
	fewest := sharers(core.Options{DirRepl: core.DirReplFewestSharers})
	type variant struct {
		label string
		opts  core.Options
	}

	fmt.Fprintf(w, "\nAblations\n=========\n")
	cases := []variant{
		{"baseline", core.Options{}},
		{"noWBcleanVicLLC (III-B1)", core.Options{NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true}},
		{"sharers, limited-4 ptrs", sharers(core.Options{LimitedPointers: 4})},
		{"sharers, fewest-sharers repl", fewest},
	}
	fmt.Fprintf(w, "%-30s %-8s %12s %10s %10s\n", "variant", "bench", "cycles", "mem", "probes")
	for _, bench := range chai.CollaborativeFive() {
		for _, c := range cases {
			res := get(engine.EvalSpec(bench, c.opts))
			fmt.Fprintf(w, "%-30s %-8s %12d %10d %10d\n",
				c.label, bench, res.Cycles, res.MemAccesses(), res.ProbesSent)
		}
	}

	// Directory-pressure study (§VII future work): with a directory far
	// smaller than the working set, entry evictions and their backward
	// invalidations dominate, and the replacement policy matters. The
	// directory keeps its associativity (buildConfig lowers it only
	// above entries/4).
	fmt.Fprintf(w, "\nDirectory-pressure ablation (512-entry directory)\n")
	fmt.Fprintf(w, "%-30s %-8s %12s %10s %12s %12s\n",
		"variant", "bench", "cycles", "probes", "dirEvicts", "backInvals")
	pressure := []variant{
		{"sharers, tree-PLRU", sharers(core.Options{})},
		{"sharers, fewest-sharers repl", fewest},
	}
	for _, bench := range chai.CollaborativeFive() {
		for _, c := range pressure {
			sp := engine.EvalSpec(bench, c.opts)
			sp.Topology.DirEntries = 512
			res := get(sp)
			fmt.Fprintf(w, "%-30s %-8s %12d %10d %12d %12d\n",
				c.label, bench, res.Cycles, res.ProbesSent,
				res.Stats["dir.entry_evictions"], res.Stats["dir.backward_inval_probes"])
		}
	}

	// Read-only elision (§IX future work) on the benchmarks with
	// read-only inputs.
	fmt.Fprintf(w, "\nRead-only elision ablation (§IX)\n")
	fmt.Fprintf(w, "%-8s %-18s %12s %10s %12s\n", "bench", "variant", "cycles", "probes", "roElided")
	for _, bench := range []string{"bs", "sc", "hsti", "hsto", "rscd", "rsct"} {
		for _, c := range []variant{
			{"baseline", core.Options{}},
			{"baseline+RO", core.Options{ReadOnlyElision: true}},
			{"sharers", sharers(core.Options{})},
			{"sharers+RO", sharers(core.Options{ReadOnlyElision: true})},
		} {
			res := get(engine.EvalSpec(bench, c.opts))
			fmt.Fprintf(w, "%-8s %-18s %12d %10d %12d\n",
				bench, c.label, res.Cycles, res.ProbesSent,
				res.Stats["dir.readonly_elided"])
		}
	}

	// Distributed directory (§VII future work): the tracked protocol
	// over 1/2/4 address-interleaved banks. One bank is the monolithic
	// directory, so that row is the Fig. 6 sharersTracking cell.
	fmt.Fprintf(w, "\nDistributed-directory ablation (§VII)\n")
	fmt.Fprintf(w, "%-8s %6s %12s %10s %10s\n", "bench", "banks", "cycles", "probes", "mem")
	for _, bench := range chai.CollaborativeFive() {
		for _, banks := range []int{1, 2, 4} {
			sp := engine.EvalSpec(bench, sharers(core.Options{}))
			if banks > 1 {
				sp.Topology.DirBanks = banks
			}
			res := get(sp)
			fmt.Fprintf(w, "%-8s %6d %12d %10d %10d\n",
				bench, banks, res.Cycles, res.ProbesSent, res.MemAccesses())
		}
	}
}
