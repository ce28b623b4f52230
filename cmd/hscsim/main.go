// Command hscsim runs one bundled CHAI or HeteroSync workload under one
// protocol variant and prints the measured results (optionally every
// counter).
//
// Usage:
//
//	hscsim -bench tq -protocol sharersTracking [-scale 2] [-threads 8] [-full] [-stats]
//
// Protocol names match the paper's figure legends: baseline, earlyResp,
// noWBcleanVic, noWBcleanVicLLC, llcWB, llcWB+useL3OnWT, ownerTracking,
// sharersTracking.
//
// The flags make one engine.Spec, which is validated and then built by
// engine.Build, exactly as the job engine builds it: a run here
// simulates what hscfig, hscsweep and POST /jobs simulate for the same
// spec, and fails (exit 1) where they fail, the end-of-run coherence
// check included. An invalid spec (unknown benchmark or protocol, a
// scale above engine.MaxScale, more threads than cores) exits 2.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"hscsim"
	"hscsim/internal/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams made
// explicit; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hscsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benches := append(append(hscsim.Benchmarks(), hscsim.ExtendedBenchmarks()...), hscsim.HeteroSyncBenchmarks()...)
	bench := fs.String("bench", "tq", "benchmark: "+strings.Join(benches, ", "))
	protocol := fs.String("protocol", "baseline", "protocol variant (see -help)")
	scale := fs.Int("scale", 1, "workload scale factor")
	threads := fs.Int("threads", 8, "CPU threads (including the host thread)")
	full := fs.Bool("full", false, "use the full Table II cache sizes instead of the eval scaling")
	dumpStats := fs.Bool("stats", false, "dump every statistics counter")
	showEnergy := fs.Bool("energy", false, "print the first-order energy estimate")
	traceFile := fs.String("trace", "", "write a JSONL coherence-message trace (analyze with hsctrace)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "hscsim:", err)
		return code
	}

	variant, err := engine.NamedVariant(*protocol)
	if err != nil {
		return fail(2, err)
	}
	sp := engine.Spec{Bench: *bench, Scale: *scale, Threads: *threads, Protocol: variant, Config: engine.ConfigEval}
	if *full {
		sp.Config = engine.ConfigFull
	}
	if err := sp.Validate(); err != nil {
		return fail(2, err)
	}
	sp = sp.Normalized()
	s, w, err := engine.Build(sp)
	if err != nil {
		return fail(1, err)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		s.TraceTo(bw)
	}
	res, err := s.Run(w)
	if err != nil {
		return fail(1, err)
	}

	fmt.Fprintf(stdout, "benchmark        : %s (scale %d, %d CPU threads)\n", res.Name, sp.Scale, sp.Threads)
	fmt.Fprintf(stdout, "protocol         : %s\n", res.Config)
	fmt.Fprintf(stdout, "simulated cycles : %d\n", res.Cycles)
	fmt.Fprintf(stdout, "memory reads     : %d\n", res.MemReads)
	fmt.Fprintf(stdout, "memory writes    : %d\n", res.MemWrites)
	fmt.Fprintf(stdout, "probes sent      : %d\n", res.ProbesSent)
	fmt.Fprintf(stdout, "LLC read hits    : %d\n", res.LLCHits)
	fmt.Fprintf(stdout, "NoC bytes        : %d\n", res.NoCBytes)

	if *showEnergy {
		fmt.Fprintf(stdout, "\nEnergy estimate (first-order, ratios meaningful):\n%s",
			hscsim.EstimateEnergy(res, hscsim.DefaultEnergyCosts()))
	}

	if *dumpStats {
		names := make([]string, 0, len(res.Stats))
		for n := range res.Stats {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(stdout)
		for _, n := range names {
			fmt.Fprintf(stdout, "%-44s %12d\n", n, res.Stats[n])
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, s.DumpHistograms())
	}
	return 0
}
