// Command hscsim runs one bundled CHAI workload under one protocol
// variant and prints the measured results (optionally every counter).
//
// Usage:
//
//	hscsim -bench tq -protocol sharersTracking [-scale 2] [-threads 8] [-full] [-stats]
//
// Protocol names match the paper's figure legends: baseline, earlyResp,
// noWBcleanVic, noWBcleanVicLLC, llcWB, llcWB+useL3OnWT, ownerTracking,
// sharersTracking.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"hscsim"
)

func main() {
	bench := flag.String("bench", "tq", "benchmark: "+strings.Join(hscsim.Benchmarks(), ", "))
	protocol := flag.String("protocol", "baseline", "protocol variant (see -help)")
	scale := flag.Int("scale", 1, "workload scale factor")
	threads := flag.Int("threads", 8, "CPU threads (including the host thread)")
	full := flag.Bool("full", false, "use the full Table II cache sizes instead of the eval scaling")
	dumpStats := flag.Bool("stats", false, "dump every statistics counter")
	showEnergy := flag.Bool("energy", false, "print the first-order energy estimate")
	traceFile := flag.String("trace", "", "write a JSONL coherence-message trace (analyze with hsctrace)")
	flag.Parse()

	variant, err := hscsim.NamedProtocolVariant(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hscsim:", err)
		os.Exit(2)
	}
	opts, err := variant.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hscsim:", err)
		os.Exit(2)
	}
	cfg := hscsim.EvalConfig(opts)
	if *full {
		cfg = hscsim.DefaultConfig()
		cfg.Protocol = opts
	}
	w, err := hscsim.NewBenchmark(*bench, hscsim.Params{Scale: *scale, CPUThreads: *threads})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hscsim:", err)
		os.Exit(1)
	}
	s := hscsim.NewSystem(cfg)
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hscsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		s.TraceTo(bw)
	}
	res, err := s.Run(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hscsim:", err)
		os.Exit(1)
	}

	fmt.Printf("benchmark        : %s (scale %d, %d CPU threads)\n", res.Name, *scale, *threads)
	fmt.Printf("protocol         : %s\n", res.Config)
	fmt.Printf("simulated cycles : %d\n", res.Cycles)
	fmt.Printf("memory reads     : %d\n", res.MemReads)
	fmt.Printf("memory writes    : %d\n", res.MemWrites)
	fmt.Printf("probes sent      : %d\n", res.ProbesSent)
	fmt.Printf("LLC read hits    : %d\n", res.LLCHits)
	fmt.Printf("NoC bytes        : %d\n", res.NoCBytes)

	if *showEnergy {
		fmt.Printf("\nEnergy estimate (first-order, ratios meaningful):\n%s",
			hscsim.EstimateEnergy(res, hscsim.DefaultEnergyCosts()))
	}

	if *dumpStats {
		names := make([]string, 0, len(res.Stats))
		for n := range res.Stats {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println()
		for _, n := range names {
			fmt.Printf("%-44s %12d\n", n, res.Stats[n])
		}
		fmt.Println()
		fmt.Print(s.DumpHistograms())
	}
}
