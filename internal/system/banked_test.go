package system_test

import (
	"strings"
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/system"
	"hscsim/internal/trace"
)

// TestDistributedDirectory runs workloads on 2- and 4-bank directories
// (§VII): results must verify, invariants must hold per bank, and the
// tracked probe reduction must survive distribution.
func TestDistributedDirectory(t *testing.T) {
	for _, banks := range []int{2, 4} {
		banks := banks
		t.Run(map[int]string{2: "2banks", 4: "4banks"}[banks], func(t *testing.T) {
			for _, opts := range []core.Options{
				{},
				{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
			} {
				cfg := smallConfig(opts)
				cfg.DirBanks = banks
				s := system.New(cfg)
				w, err := chai.ByName("tq", chai.Params{Scale: 1, CPUThreads: 8})
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.DirBanks) != banks {
					t.Fatalf("banks = %d", len(s.DirBanks))
				}
				if opts.Tracking != core.TrackNone && res.ProbesSent == 0 {
					// Probes are rare under tracking, but the aggregate
					// counters must still be wired up.
					t.Log("no probes under tracking (fine for tq)")
				}
				if res.Cycles == 0 {
					t.Fatal("no cycles")
				}
			}
		})
	}
}

// TestBankedProbeAggregation: the baseline's probe count is invariant
// under banking (same transactions, just distributed).
func TestBankedProbeAggregation(t *testing.T) {
	run := func(banks int) uint64 {
		cfg := smallConfig(core.Options{})
		cfg.DirBanks = banks
		s := system.New(cfg)
		w, err := chai.ByName("hsto", chai.Params{Scale: 1, CPUThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res.ProbesSent
	}
	p1, p4 := run(1), run(4)
	// Timing shifts change victim patterns slightly; probe counts must
	// agree within a few percent.
	diff := float64(p1) - float64(p4)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(p1) > 0.05 {
		t.Fatalf("probes: 1 bank = %d, 4 banks = %d (>5%% apart)", p1, p4)
	}
}

// TestBankRouting: tracked entries land in the bank the router selects.
func TestBankRouting(t *testing.T) {
	cfg := smallConfig(core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true})
	cfg.DirBanks = 4
	s := system.New(cfg)
	w, err := chai.ByName("bs", chai.Params{Scale: 1, CPUThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w); err != nil {
		t.Fatal(err)
	}
	total := 0
	occupied := 0
	for _, b := range s.DirBanks {
		n := b.DirOccupancy()
		total += n
		if n > 0 {
			occupied++
		}
	}
	if total == 0 {
		t.Fatal("no tracked entries anywhere")
	}
	if occupied < 2 {
		t.Fatalf("entries concentrated in %d bank(s); interleaving broken", occupied)
	}
	// Every cached L2 line must be tracked by exactly its routed bank
	// (Run's coherence sweep already asserts presence; assert absence in
	// the other banks for a sample).
	checked := 0
	s.CorePairs[0].ForEachL2Line(func(line cachearray.LineAddr, st corepair.MOESI) {
		if checked >= 16 {
			return
		}
		checked++
		home := s.BankFor(line)
		for _, b := range s.DirBanks {
			state, _, _ := b.EntryState(line)
			if b == home && state == "I" {
				t.Errorf("line %#x untracked in its home bank", uint64(line))
			}
			if b != home && state != "I" {
				t.Errorf("line %#x tracked in a foreign bank", uint64(line))
			}
		}
	})
}

// TestMultiTCCSystem runs a collaborative workload with two TCC banks:
// results verify, invariants hold, and the banks both see traffic.
func TestMultiTCCSystem(t *testing.T) {
	for _, opts := range []core.Options{
		{},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	} {
		cfg := smallConfig(opts)
		cfg.GPU.NumTCCs = 2
		s := system.New(cfg)
		w, err := chai.ByName("hsti", chai.Params{Scale: 1, CPUThreads: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(w); err != nil {
			t.Fatal(err)
		}
		if got := len(s.GPUCaches.NodeIDs()); got != 2 {
			t.Fatalf("TCC banks = %d", got)
		}
	}
}

// TestTraceToProducesParseableEvents: the system tracer must emit a
// JSONL stream the trace package can read and summarize.
func TestTraceToProducesParseableEvents(t *testing.T) {
	var buf strings.Builder
	s := system.New(smallConfig(core.Options{}))
	s.TraceTo(&buf)
	w, err := chai.ByName("bs", chai.Params{Scale: 1, CPUThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	sum := trace.Summarize(events, 5)
	if sum.ByType["RdBlk"] == 0 || sum.ByType["Resp"] == 0 {
		t.Fatalf("summary = %v", sum.ByType)
	}
	if len(sum.HotLines) == 0 {
		t.Fatal("no hot lines")
	}
	// Turning tracing off stops the stream.
	s2 := system.New(smallConfig(core.Options{}))
	var buf2 strings.Builder
	s2.TraceTo(&buf2)
	s2.TraceTo(nil)
	w2, _ := chai.ByName("bs", chai.Params{Scale: 1, CPUThreads: 4})
	if _, err := s2.Run(w2); err != nil {
		t.Fatal(err)
	}
	if buf2.Len() != 0 {
		t.Fatal("tracer kept writing after removal")
	}
}
