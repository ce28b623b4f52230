// Package chai provides behaviour-matched models of the CHAI
// collaborative heterogeneous benchmarks the paper evaluates (§V):
// Bezier Surface (bs), Canny Edge Detection (cedd), Padding (pad),
// Stream Compaction (sc), Task Queue System (tq), input- and
// output-partitioned Histogram (hsti, hsto), In-Place Transposition
// (trns), and data- and task-parallel Random Sample Consensus (rscd,
// rsct).
//
// Each workload reproduces the original's CPU/GPU partitioning,
// data-sharing pattern and atomics-based synchronization (dynamic
// fetch-add tiling, work queues, flags), which is what the coherence
// enhancements are sensitive to (DESIGN.md, substitutions). All
// workloads are deterministic (fixed seeds) and self-verifying.
package chai

import (
	"fmt"
	"math/rand"
	"slices"

	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/system"
)

// Params scales workloads. Scale 1 is the default evaluation size,
// chosen so a full protocol sweep runs in seconds; larger scales stress
// cache capacity.
type Params struct {
	Scale int
	// CPUThreads is the number of CPU worker threads (including the
	// host thread). The paper's system has 8 CPU cores (Table III).
	CPUThreads int
	// Seed perturbs every benchmark's input-generation RNG, so the
	// conformance harness can replay a whole campaign under fresh but
	// reproducible inputs. Zero is the paper's evaluation input set.
	Seed int64
}

// DefaultParams matches the evaluation setup.
func DefaultParams() Params { return Params{Scale: 1, CPUThreads: 8} }

func (p Params) normalized() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.CPUThreads <= 0 {
		p.CPUThreads = 8
	}
	return p
}

// allNames is the suite: the ten benchmarks the paper evaluates, in
// its order, then the four it could not run.
var allNames = [...]string{"bs", "cedd", "pad", "sc", "tq", "hsti", "hsto", "trns", "rscd", "rsct",
	"bfs", "sssp", "tqh", "cedt"}

// Names lists the ten benchmarks the paper evaluates, in its order.
func Names() []string { return slices.Clone(allNames[:10]) }

// ExtendedNames lists the four CHAI benchmarks the paper could NOT run
// ("spurious failures in waking CPU threads in the O3 CPU
// implementation within gem5", §V). This simulator has no such bug, so
// the full 14-benchmark suite is available: frontier-switching BFS,
// parallel-relaxation SSSP, the task-queue histogram, and task-parallel
// Canny.
func ExtendedNames() []string { return slices.Clone(allNames[10:]) }

// AllNames is the full 14-benchmark CHAI suite.
func AllNames() []string { return slices.Clone(allNames[:]) }

// Known reports whether name is a CHAI benchmark, without building a
// list.
func Known(name string) bool { return slices.Contains(allNames[:], name) }

// CollaborativeFive lists the five heavily collaborating benchmarks the
// paper uses for the state-tracking evaluation (Figs. 6 and 7).
func CollaborativeFive() []string { return []string{"cedd", "sc", "tq", "hsti", "trns"} }

// ByName builds the named workload.
func ByName(name string, p Params) (system.Workload, error) {
	p = p.normalized()
	switch name {
	case "bs":
		return BezierSurface(p), nil
	case "cedd":
		return CannyEdgeDetection(p), nil
	case "pad":
		return Padding(p), nil
	case "sc":
		return StreamCompaction(p), nil
	case "tq":
		return TaskQueue(p), nil
	case "hsti":
		return HistogramInput(p), nil
	case "hsto":
		return HistogramOutput(p), nil
	case "trns":
		return Transpose(p), nil
	case "rscd":
		return RansacData(p), nil
	case "rsct":
		return RansacTask(p), nil
	case "bfs":
		return BFS(p), nil
	case "sssp":
		return SSSP(p), nil
	case "tqh":
		return TaskQueueHistogram(p), nil
	case "cedt":
		return CannyTaskParallel(p), nil
	}
	return system.Workload{}, fmt.Errorf("chai: unknown benchmark %q", name)
}

// StartedThreads returns how many CPU threads the named benchmark
// starts under p, and false for a name that is not a CHAI benchmark.
// Most start p.CPUThreads. rscd runs only its host thread; bfs, cedd
// and sssp run a host plus at least one worker. Two thread counts that
// map to one value simulate the same run.
func StartedThreads(name string, p Params) (int, bool) {
	p = p.normalized()
	switch name {
	case "rscd":
		return 1, true
	case "bfs", "cedd", "sssp":
		return max(p.CPUThreads, 2), true
	}
	return p.CPUThreads, Known(name)
}

// All builds every benchmark.
func All(p Params) []system.Workload {
	var out []system.Workload
	for _, n := range Names() {
		w, err := ByName(n, p)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	return out
}

// dataBase is where benchmark data structures start; code regions live
// much higher (see package system).
const dataBase = memdata.Addr(0x1000_0000)

// kernelCode returns a distinct SQC code region per kernel.
func kernelCode(i int) memdata.Addr { return 0xF800_0000 + memdata.Addr(i)*0x10000 }

// wa computes the address of word i of an array.
func wa(base memdata.Addr, i int) memdata.Addr { return base + memdata.Addr(i)*8 }

// newRNG returns the deterministic generator used for benchmark inputs
// ("randomization seeds for deterministic execution", §V).
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// seed folds the campaign seed into a benchmark's fixed base seed.
func (p Params) seed(base int64) int64 { return base + p.Seed*1_000_003 }

// randomWords returns the generator of the input words fillRandom
// writes for mod and seed: each call returns the next one. A Verify
// that needs an input its run may overwrite regenerates it with this,
// so no workload keeps a copy of its inputs.
func randomWords(mod uint64, seed int64) func() uint64 {
	src := rand.NewSource(seed) // rand.Rand's Int63 is its source's
	return func() uint64 { return uint64(src.Int63()) % mod }
}

// fillRandom initializes n input words at base in functional memory.
func fillRandom(fm *memdata.Memory, base memdata.Addr, n int, mod uint64, seed int64) {
	next := randomWords(mod, seed)
	for i := range n {
		fm.Write(wa(base, i), next())
	}
}

// collaborative returns the CPU threads of a collaborative workload:
// thread 0 launches k, runs its share of the CPU work and waits for the
// kernel; threads 1 … n-1 run their share.
func collaborative(n int, k *prog.Kernel, share func(*prog.CPUThread)) []func(*prog.CPUThread) {
	threads := make([]func(*prog.CPUThread), n)
	threads[0] = func(t *prog.CPUThread) {
		h := t.Launch(k)
		share(t)
		t.Wait(h)
	}
	for i := 1; i < n; i++ {
		threads[i] = share
	}
	return threads
}

// splitRange statically partitions [0,n) into `parts` chunks and
// returns the bounds of chunk i.
func splitRange(n, parts, i int) (lo, hi int) {
	lo = n * i / parts
	hi = n * (i + 1) / parts
	return lo, hi
}
