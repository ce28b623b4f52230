package system_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/system"
)

// runBanked runs tq on a system with two directory banks and two TCCs.
func runBanked(t *testing.T) (*system.System, system.Results) {
	t.Helper()
	cfg := smallConfig(core.Options{Tracking: core.TrackOwner, LLCWriteBack: true})
	cfg.DirBanks = 2
	cfg.GPU.NumTCCs = 2
	s := system.New(cfg)
	w, err := chai.ByName("tq", chai.Params{Scale: 1, CPUThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// TestSnapshotAndDump: Results.Stats holds every component's counters
// under its prefix, and the histogram dump lists every histogram once,
// sorted by name.
func TestSnapshotAndDump(t *testing.T) {
	s, res := runBanked(t)
	perPrefix := map[string]int{}
	for name := range res.Stats {
		prefix, _, ok := strings.Cut(name, ".")
		if !ok {
			t.Fatalf("counter %q has no prefix", name)
		}
		perPrefix[prefix]++
	}
	want := map[string]int{"noc": 6, "mem": 3, "dir0": 13, "dir1": 13, "llc0": 4, "llc1": 4, "gpu": 11, "gpudisp": 3, "dma": 2}
	for p := range s.CorePairs {
		want[fmt.Sprintf("cp%d", p)] = 11
	}
	for c := range s.Cores {
		want[fmt.Sprintf("core%d", c)] = 3
	}
	if fmt.Sprint(perPrefix) != fmt.Sprint(want) {
		t.Fatalf("counters per prefix:\n got %v\nwant %v", perPrefix, want)
	}
	if got := res.Stats["core0.ops"]; got != s.Cores[0].Stats.Ops || got == 0 {
		t.Fatalf("core0.ops = %d, core 0 counted %d", got, s.Cores[0].Stats.Ops)
	}

	lines := strings.Split(strings.TrimSuffix(s.DumpHistograms(), "\n"), "\n")
	var names []string
	for _, l := range lines {
		name, summary, ok := strings.Cut(l, ": ")
		if !ok || !strings.HasPrefix(summary, "n=") {
			t.Fatalf("histogram line %q", l)
		}
		names = append(names, name)
	}
	wantNames := []string{"cp0.miss_latency", "cp1.miss_latency", "cp2.miss_latency", "cp3.miss_latency", "dir0.txn_latency", "dir1.txn_latency"}
	if !sort.StringsAreSorted(names) || strings.Join(names, " ") != strings.Join(wantNames, " ") {
		t.Fatalf("histograms = %v, want %v", names, wantNames)
	}
}

// TestSumAcrossBanks: the headline Results fields add their counter
// over every directory bank.
func TestSumAcrossBanks(t *testing.T) {
	s, res := runBanked(t)
	var probes, llcHits uint64
	for b := range s.DirBanks {
		probes += res.Stats[fmt.Sprintf("dir%d.probes_sent", b)]
		llcHits += res.Stats[fmt.Sprintf("llc%d.read_hits", b)]
	}
	if s.DirBanks[0].Stats.ProbesSent == 0 || s.DirBanks[1].Stats.ProbesSent == 0 {
		t.Fatal("a bank sent no probes; the sum is untested")
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"ProbesSent", res.ProbesSent, probes},
		{"LLCHits", res.LLCHits, llcHits},
		{"NoCBytes", res.NoCBytes, res.Stats["noc.bytes"]},
		{"MemReads", res.MemReads, res.Stats["mem.reads"]},
		{"MemWrites", res.MemWrites, res.Stats["mem.writes"]},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
