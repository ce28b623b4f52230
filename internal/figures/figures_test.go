package figures

import (
	"context"
	"strings"
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/engine"
	"hscsim/internal/system"
)

// execute simulates each cell in process, the way an engine worker
// does.
func execute(t *testing.T) Get {
	return func(sp engine.Spec) system.Results {
		b, err := engine.Execute(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.DecodeResult(b)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

func TestSweepAndWriters(t *testing.T) {
	variants := []core.Options{
		{},
		{Tracking: core.TrackOwner, LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
		{EarlyDirtyResponse: true},
		{NoWBCleanVicToMem: true},
		{LLCWriteBack: true},
		{LLCWriteBack: true, UseL3OnWT: true},
	}
	sw := EvalSweep(execute(t), []string{"tq"}, variants)
	base := sw.Results["tq"]["baseline"]
	tracked := sw.Results["tq"]["sharersTracking"]
	if PercentProbeReduction(base, tracked) <= 50 {
		t.Fatalf("probe reduction %.1f%% too small — tracking broken?",
			PercentProbeReduction(base, tracked))
	}
	if PercentSaved(base, tracked) <= 0 {
		t.Fatalf("tracking slower than baseline (%.1f%%)", PercentSaved(base, tracked))
	}

	var b strings.Builder
	WriteFig4(&b, sw)
	WriteFig5(&b, sw)
	WriteFig6(&b, sw)
	WriteFig7(&b, sw)
	WriteTable2(&b)
	WriteTable3(&b)
	out := b.String()
	for _, want := range []string{
		"Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
		"Table II", "Table III",
		"tq", "ownerTracking", "sharersTracking",
		"3.5 GHz", "1.1 GHz",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if len(sw.Results["tq"]) != len(variants) {
		t.Error("config names lost")
	}
}

func TestPercentHelpersZeroBase(t *testing.T) {
	var zero, some = results(0, 0, 0), results(10, 10, 10)
	if PercentSaved(zero, some) != 0 || PercentProbeReduction(zero, some) != 0 || PercentMemReduction(zero, some) != 0 {
		t.Fatal("zero baselines must not divide by zero")
	}
}

func results(cycles, mem, probes uint64) (r system.Results) {
	r.Cycles = cycles
	r.MemReads = mem
	r.ProbesSent = probes
	return r
}

func TestWriteCSV(t *testing.T) {
	sw := &Sweep{
		Benches: []string{"tq"},
		Results: map[string]map[string]system.Results{
			"tq": {"baseline": {Cycles: 10, MemReads: 2, MemWrites: 3, ProbesSent: 4, LLCHits: 5, NoCBytes: 6}},
		},
	}
	var b strings.Builder
	if err := WriteCSV(&b, sw); err != nil {
		t.Fatal(err)
	}
	want := "benchmark,config,cycles,mem_reads,mem_writes,probes_sent,llc_hits,noc_bytes\ntq,baseline,10,2,3,4,5,6\n"
	if b.String() != want {
		t.Fatalf("csv = %q", b.String())
	}
}
