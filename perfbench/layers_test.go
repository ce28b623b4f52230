package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"hscsim"
)

func TestAttributeInnermostInternalFrame(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"leaf in a layer", []string{
			"hscsim/internal/core.(*Directory).start",
			"hscsim/internal/sim.(*Engine).step",
		}, "core"},
		{"runtime park under prog's rendezvous", []string{
			"runtime.gopark",
			"runtime.selectgo",
			"hscsim/internal/prog.(*CPUThread).do",
			"hscsim/internal/cpu.(*Core).step",
		}, "prog"},
		{"malloc under the directory", []string{
			"runtime.mallocgc",
			"runtime.newobject",
			"hscsim/internal/core.(*Directory).enqueue.func1",
			"hscsim/internal/sim.(*Engine).Run",
		}, "core"},
		{"msg folds into noc", []string{"hscsim/internal/msg.(*Pool).Alloc", "hscsim/internal/core.(*Directory).probeSet"}, "noc"},
		{"chai folds into workload", []string{"hscsim/internal/chai.TaskQueue.func3", "hscsim/internal/prog.(*CPUThread).Load"}, "workload"},
		{"heterosync folds into workload", []string{"hscsim/internal/heterosync.mutex.func1"}, "workload"},
		{"fleet folds into hscserve", []string{"hscsim/internal/fleet.(*Fleet).Handler.func1"}, "hscserve"},
		{"subpackage counts to its parent", []string{"hscsim/internal/sim/refsched.(*Engine).Run"}, "sim"},
		{"unknown package is its own layer", []string{"hscsim/internal/newpkg.F", "hscsim/internal/core.G"}, "newpkg"},
		{"generic function", []string{"hscsim/internal/stats.Sum[...]"}, "stats"},
		{"root package is not a layer", []string{"hscsim.NewSystem", "main.main"}, otherLayer},
		{"no hscsim frame", []string{"runtime.gcBgMarkWorker", "runtime.goexit"}, otherLayer},
		{"empty stack", nil, otherLayer},
		{"lookalike prefix", []string{"hscsim/internalx.F", "hscsimbench.F"}, otherLayer},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute(%q) = %q, want %q", c.name, c.stack, got, c.want)
		}
	}
}

// TestCPUProfileRoundTrip profiles a real simulation and checks that
// the decoder recovers its samples, that the simulator's layers show
// up, and that the layers sum to the profile's total.
func TestCPUProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := hscsim.RunBenchmark("tq", hscsim.EvalConfig(hscsim.ProtocolOptions{}), hscsim.DefaultParams()); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	var total int64
	for _, s := range samples {
		total += s.ns
	}
	layers, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ns := range layers {
		sum += ns
	}
	if sum != total {
		t.Errorf("layers sum to %d ns, profile total %d ns", sum, total)
	}
	if layers["sim"]+layers["core"]+layers["noc"]+layers["prog"] == 0 {
		t.Errorf("no time attributed to the simulator's layers: %v", layers)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted non-gzip input")
	}
}
