// Command hscsweep characterizes how a workload scales with the
// system's structural parameters — CorePairs, CUs, directory banks,
// TCC banks and store-buffer depth — under a chosen protocol variant.
// This is the "characterization" companion to hscfig's fixed-shape
// figures (§V's benchmark characterization).
//
// The whole sweep is one engine.SweepSpec (benches × variants ×
// topology points). Locally, every point runs as a job on the
// simulation engine (internal/engine): points execute in parallel on
// the worker pool, and with -cache the results persist, so re-running
// a sweep — or sharing a cache directory with hscfig/hscserve — is
// served from the content-addressed store instead of re-simulating.
//
// With -server, the sweep is submitted as ONE batch (POST /sweeps) to
// an hscserve process, which expands it server-side and streams
// per-cell results back in expansion order. The printed table is
// identical either way — the engine's determinism guarantees
// byte-identical per-cell results in-process or on a server (-dump
// writes them out for comparison).
//
// Usage:
//
//	hscsweep [-bench tq] [-protocol sharersTracking] [-scale 1] [-cache dir] [-j N]
//	         [-server http://host:8080] [-dump cells.tsv]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"hscsim/internal/engine"
	"hscsim/internal/system"
)

type section struct {
	title  string
	column string
	values []int
	points []engine.SweepPoint
}

// buildSections lays out the characterization grid. The concatenation
// of every section's points, in order, IS the sweep's point list, so
// (section, point) maps to a cell index by running count.
func buildSections() []section {
	topo := func(label string, t engine.TopologySpec, threads int) engine.SweepPoint {
		return engine.SweepPoint{Label: label, Topology: t, Threads: threads}
	}
	sections := []section{
		{title: "CPU scaling (CorePairs × 2 threads)", column: "pairs", values: []int{1, 2, 4}},
		{title: "GPU scaling (CUs)", column: "CUs", values: []int{2, 4, 8}},
		{title: "Directory banking (§VII)", column: "banks", values: []int{1, 2, 4}},
		{title: "TCC banking", column: "TCCs", values: []int{1, 2}},
		{title: "Store-buffer depth (CPU MLP)", column: "slots", values: []int{0, 4, 16}},
	}
	for si := range sections {
		s := &sections[si]
		for _, v := range s.values {
			label := fmt.Sprintf("%s=%d", s.column, v)
			switch s.column {
			case "pairs":
				s.points = append(s.points, topo(label, engine.TopologySpec{NumCorePairs: v}, v*2))
			case "CUs":
				s.points = append(s.points, topo(label, engine.TopologySpec{NumCUs: v}, 8))
			case "banks":
				s.points = append(s.points, topo(label, engine.TopologySpec{DirBanks: v}, 8))
			case "TCCs":
				s.points = append(s.points, topo(label, engine.TopologySpec{NumTCCs: v}, 8))
			case "slots":
				s.points = append(s.points, topo(label, engine.TopologySpec{StoreBufferSize: v, StoreBufferZero: v == 0}, 8))
			}
		}
	}
	return sections
}

func main() {
	bench := flag.String("bench", "tq", "benchmark (CHAI or HeteroSync)")
	protocol := flag.String("protocol", "sharersTracking", "protocol variant")
	scale := flag.Int("scale", 1, "workload scale")
	cacheDir := flag.String("cache", "", "persist results in this directory (re-runs become cache hits)")
	jobs := flag.Int("j", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
	server := flag.String("server", "", "submit the sweep as one batch to this hscserve")
	dump := flag.String("dump", "", "write per-cell 'hash<TAB>result' lines (expansion order) to this file")
	flag.Parse()

	variant, err := engine.NamedVariant(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hscsweep:", err)
		os.Exit(2)
	}

	sections := buildSections()
	var points []engine.SweepPoint
	for _, s := range sections {
		points = append(points, s.points...)
	}
	sweep := engine.SweepSpec{
		Benches:  []string{*bench},
		Variants: []engine.ProtocolSpec{variant},
		Points:   points,
		Scale:    *scale,
		Config:   engine.ConfigEval,
	}
	if err := sweep.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hscsweep:", err)
		os.Exit(2)
	}
	cells, err := sweep.Cells()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hscsweep:", err)
		os.Exit(2)
	}

	var results [][]byte
	var summary string
	if *server != "" {
		results, summary, err = runRemote(*server, sweep, len(cells))
	} else {
		results, summary, err = runLocal(sweep, cells, *cacheDir, *jobs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hscsweep:", err)
		os.Exit(1)
	}

	if *dump != "" {
		if err := dumpCells(*dump, cells, results); err != nil {
			fmt.Fprintln(os.Stderr, "hscsweep:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("benchmark %s, protocol %s, scale %d\n", *bench, *protocol, *scale)
	idx := 0
	for _, sec := range sections {
		fmt.Printf("\n%s\n", sec.title)
		fmt.Printf("%8s %12s %10s %10s\n", sec.column, "cycles", "probes", "mem")
		for i := range sec.points {
			res, err := engine.DecodeResult(results[idx])
			if err != nil {
				fmt.Fprintln(os.Stderr, "hscsweep:", err)
				os.Exit(1)
			}
			printRow(sec.values[i], res)
			idx++
		}
	}
	fmt.Printf("\n%s\n", summary)
}

// runLocal executes every cell on an in-process engine (the original
// single-host mode).
func runLocal(sweep engine.SweepSpec, cells []engine.Spec, cacheDir string, jobs int) ([][]byte, string, error) {
	cache, err := engine.NewCache(0, cacheDir)
	if err != nil {
		return nil, "", err
	}
	eng := engine.New(engine.Config{Workers: jobs, Cache: cache})
	defer eng.Close()

	// One batch, the same windowed loop POST /sweeps runs: the pool
	// simulates the points in parallel and they are collected in order.
	results := make([][]byte, len(cells))
	err = eng.Batch(context.Background(), cells, func(i int, _ *engine.Job, out []byte, err error) error {
		results[i] = out
		return err
	})
	if err != nil {
		return nil, "", err
	}
	st := eng.Stats()
	return results, fmt.Sprintf("engine: %d simulated, %d served from cache", st.Done, st.CacheHits), nil
}

// runRemote submits the sweep as one POST /sweeps batch and collects
// the NDJSON stream.
func runRemote(server string, sweep engine.SweepSpec, n int) ([][]byte, string, error) {
	body, err := json.Marshal(sweep)
	if err != nil {
		return nil, "", err
	}
	resp, err := http.Post(strings.TrimRight(server, "/")+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return nil, "", fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(buf.String()))
	}

	// Cell lines and the summary line both carry a "cached" field with
	// DIFFERENT types (per-cell bool, summary count), so each line kind
	// gets its own decode.
	results := make([][]byte, n)
	summary := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			return nil, "", fmt.Errorf("bad stream line: %w", err)
		}
		switch head.Type {
		case "cell":
			var l struct {
				Index  int             `json:"index"`
				State  string          `json:"state"`
				Error  string          `json:"error"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				return nil, "", fmt.Errorf("bad cell line: %w", err)
			}
			if l.State == "failed" {
				return nil, "", fmt.Errorf("cell %d failed: %s", l.Index, l.Error)
			}
			if l.Index < 0 || l.Index >= n {
				return nil, "", fmt.Errorf("cell index %d out of range", l.Index)
			}
			results[l.Index] = []byte(l.Result)
		case "summary":
			var l struct {
				Total  int `json:"total"`
				Failed int `json:"failed"`
				Cached int `json:"cached"`
			}
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				return nil, "", fmt.Errorf("bad summary line: %w", err)
			}
			summary = fmt.Sprintf("server: %d cells, %d served from cache, %d failed", l.Total, l.Cached, l.Failed)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	for i, r := range results {
		if r == nil {
			return nil, "", fmt.Errorf("stream ended without a result for cell %d", i)
		}
	}
	if summary == "" {
		summary = "server: stream ended without summary"
	}
	return results, summary, nil
}

// dumpCells writes 'hash<TAB>result' per cell in expansion order —
// a canonical, diffable record used by scripts/sweep_smoke.sh to prove
// server and in-process sweeps byte-identical.
func dumpCells(path string, cells []engine.Spec, results [][]byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, c := range cells {
		fmt.Fprintf(w, "%s\t%s\n", c.Hash(), results[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printRow(v int, res system.Results) {
	fmt.Printf("%8d %12d %10d %10d\n", v, res.Cycles, res.ProbesSent, res.MemAccesses())
}
