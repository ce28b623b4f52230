// Command perfbench is the repository's benchmark. It drives the
// simulator only through the root hscsim package and the hscserve
// binary, runs one workload per process, checks every result against
// committed digests, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds this and hscserve):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 0 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload all --seconds 40
//	bash perfbench/run.sh -record
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that attributes host time and allocations to layers and writes spans
// and a per-layer table under -out. -record regenerates digests.json.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workers and clients size the load for a 2-core host: at most two
// engine workers and two client connections.
const (
	workers = 2
	clients = 2
	// seedClasses is how many input seeds have committed digests; the
	// benchmark seed n selects input seed n mod seedClasses.
	seedClasses = 8
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	hscserve string
	out      string
	digests  string
	record   bool
	hostref  bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the state one run shares across its phases.
type env struct {
	opt     options
	digests *digestTable
	tally   tally
	tr      *tracer
	metrics map[string]metric
}

func (e *env) set(name, unit string, v float64) { e.metrics[name] = metric{Value: v, Unit: unit} }

// inputSeed folds the benchmark seed onto the committed input seeds.
func (e *env) inputSeed() int64 {
	return ((e.opt.seed % seedClasses) + seedClasses) % seedClasses
}

var workloads = map[string]func(*env) error{
	"paper-sweep": func(e *env) error { return runSweepWorkload(e, paperSweep) },
	"gpu-sync":    func(e *env) error { return runSweepWorkload(e, gpuSync) },
	"serve-mixed": runServe,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "paper-sweep, gpu-sync, serve-mixed, or all")
	flag.Int64Var(&o.seed, "seed", 0, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 40, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.hscserve, "hscserve", "", "path to the hscserve binary")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for spans, per-layer tables and server caches")
	flag.StringVar(&o.digests, "digests", "perfbench/digests.json", "committed result digests")
	flag.BoolVar(&o.record, "record", false, "recompute every digest and rewrite -digests")
	flag.BoolVar(&o.hostref, "hostref", false, "run as the host-speed reference helper (see hostref.go)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.hostref {
		return serveHostRef(os.Stdin, os.Stdout)
	}
	if o.record {
		return recordDigests(o.digests)
	}
	if o.workload == "all" {
		return runAll(o)
	}
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return errors.New("-seconds must be ≥1 and -trace 0 or 1")
	}
	d, err := loadDigests(o.digests)
	if err != nil {
		return err
	}
	e := &env{opt: o, digests: d, tr: &tracer{on: o.trace == 1, t0: time.Now()}, metrics: make(map[string]metric)}
	if err := wl(e); err != nil {
		return err
	}
	e.tally.mu.Lock()
	defer e.tally.mu.Unlock()
	for _, msg := range e.tally.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
	}
	r := report{
		Correct:   e.tally.failed == 0 && e.tally.attempted > 0,
		Attempted: e.tally.attempted,
		Failed:    e.tally.failed,
		Metrics:   e.metrics,
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runAll runs every workload untraced and traced, each in its own
// process, and prints every metric by name with its unit.
func runAll(o options) error {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	total := report{Correct: true, Metrics: make(map[string]metric)}
	for _, n := range names {
		for _, trace := range []int{0, 1} {
			cmd := exec.Command(os.Args[0], "-workload", n, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace),
				"-hscserve", o.hscserve, "-out", o.out, "-digests", o.digests)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s (trace %d): %w", n, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s (trace %d): %w", n, trace, err)
			}
			fmt.Printf("\n%s (trace %d): correct=%t attempted=%d failed=%d\n", n, trace, r.Correct, r.Attempted, r.Failed)
			keys := make([]string, 0, len(r.Metrics))
			for k := range r.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				m := r.Metrics[k]
				fmt.Printf("  %-28s %16.6g %s\n", k, m.Value, m.Unit)
				total.Metrics[n+"/"+k] = m
			}
			total.Correct = total.Correct && r.Correct
			total.Attempted += r.Attempted
			total.Failed += r.Failed
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// tally counts the operations a run attempted and the ones that failed:
// an error, a Verify/CheckCoherence failure, or a digest mismatch.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// digestTable maps a cell label to the truncated SHA-256 of its
// canonical result bytes at the commit the table was recorded on.
type digestTable struct {
	Note        string            `json:"note"`
	DefaultSeed int64             `json:"default_seed"`
	HeldOutSeed int64             `json:"held_out_seed"`
	SeedClasses int               `json:"seed_classes"`
	Digests     map[string]string `json:"digests"`
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func loadDigests(path string) (*digestTable, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	var d digestTable
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("digests: %s: %w", path, err)
	}
	if d.SeedClasses != seedClasses {
		return nil, fmt.Errorf("digests: %s has %d seed classes, want %d", path, d.SeedClasses, seedClasses)
	}
	return &d, nil
}

// check compares a result with its committed digest. The table is
// read-only after loading, so concurrent checks need no lock.
func (d *digestTable) check(label string, result []byte) error {
	want, ok := d.Digests[label]
	switch got := digestOf(result); {
	case !ok:
		return fmt.Errorf("%s: no committed digest", label)
	case got != want:
		return fmt.Errorf("%s: result digest %s, committed %s", label, got, want)
	}
	return nil
}

// tracer keeps spans in memory; they are written out when the run
// ends. A disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mean returns the mean duration of the closed spans whose name starts
// with prefix, and how many there were.
func (t *tracer) mean(prefix string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.End >= 0 && strings.HasPrefix(s.Name, prefix) {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return time.Duration(sum / int64(n)), n
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// quantile returns the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusMB reads a memory field such as VmRSS or VmHWM from a process's
// /proc status ("self" or a pid), in MB.
func statusMB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// peakRSSDuring runs f and returns the process's largest resident set
// seen while it ran, sampled every 20 ms.
func peakRSSDuring(pid string, f func()) float64 {
	done := make(chan struct{})
	var peak float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := statusMB(pid, "VmRSS"); err == nil && mb > peak {
				peak = mb
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	f()
	close(done)
	wg.Wait()
	return peak
}
