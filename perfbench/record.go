package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"hscsim"
)

// recordDigests recomputes the digest of every cell the benchmark can
// request — each workload's cells and warm-ups for every input seed,
// the serve hot set and miss pool — and rewrites the digest table.
func recordDigests(path string) error {
	var cells []cell
	for seed := int64(0); seed < seedClasses; seed++ {
		for _, w := range []sweepWorkload{paperSweep, gpuSync} {
			if w.name == gpuSync.name && seed > 0 {
				continue // HeteroSync results do not depend on the input seed
			}
			cs, err := w.cells(seed)
			if err != nil {
				return err
			}
			warm, err := w.warmup(seed)
			if err != nil {
				return err
			}
			cells = append(append(cells, cs...), warm)
		}
	}
	for _, f := range []func() ([]cell, error){serveHot, serveMissPool} {
		cs, err := f()
		if err != nil {
			return err
		}
		cells = append(cells, cs...)
	}

	eng := hscsim.NewJobEngine(hscsim.JobEngineConfig{Workers: workers, QueueDepth: len(cells)})
	defer eng.Close()
	jobs := make([]*hscsim.SimJob, len(cells))
	for i, c := range cells {
		j, err := eng.Submit(c.spec)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		jobs[i] = j
	}
	t := digestTable{
		Note: "Truncated SHA-256 of each cell's canonical result bytes. Regenerate with " +
			"`bash perfbench/run.sh -record` only when a change is meant to alter simulated results.",
		DefaultSeed: 0,
		HeldOutSeed: seedClasses - 1,
		SeedClasses: seedClasses,
		Digests:     make(map[string]string, len(cells)),
	}
	for i, j := range jobs {
		b, err := j.Wait(context.Background())
		if err != nil {
			return fmt.Errorf("%s: %w", cells[i].label, err)
		}
		if prev, ok := t.Digests[cells[i].label]; ok && prev != digestOf(b) {
			return fmt.Errorf("%s: two specs share the label", cells[i].label)
		}
		t.Digests[cells[i].label] = digestOf(b)
	}
	b, err := json.MarshalIndent(&t, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d digests in %s\n", len(t.Digests), path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
