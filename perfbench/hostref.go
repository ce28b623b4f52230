package main

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by tens of
// percent over seconds to minutes, so the same code reads very
// differently from one run to the next. Every timing the untraced run
// reports is therefore scaled to a reference host: a fixed kernel that
// does not call the program runs just before and just after each timed
// segment, and a time t taken in the segment is reported as
//
//	t × nominal / mean(kernel time before, kernel time after).
//
// The kernel's time is taken two ways. Its wall time counts the time
// the hypervisor takes the host's vCPUs away (steal) as well as the
// slowdown of a running thread; it scales a segment's totals — a sweep's
// wall time, a request rate — which absorb steal in proportion. Its CPU
// time counts only the slowdown of a running thread; it scales CPU times
// and the percentiles of single requests, most of which no steal
// interval touches, and which the wall factor overcorrects when steal is
// heavy. On a host running at the reference speed both factors are 1.
//
// The kernel allocates small objects, builds and walks a map and hashes
// a buffer, which is the mix the simulator and the serving path spend
// their time on; its speed tracks theirs far more closely than a pure
// arithmetic or pointer-chasing loop does. It runs in a helper process
// of its own (this binary with -hostref), so neither its allocations nor
// the benchmark process's heap and garbage collector touch the other's
// numbers.
const (
	// refNominal is the kernel's wall time on an idle 2-vCPU Intel Xeon
	// host; its CPU time there is workers × refNominal.
	refNominal = 100 * time.Millisecond
	// refChunks is how many chunks each of the kernel's goroutines runs.
	refChunks = 8
)

var refSink atomic.Uint64

// refChunk is one unit of the reference kernel: build a map of 32 k
// small heap objects, walk it eight times and hash a 4 KiB buffer 200
// times.
func refChunk() {
	const n = 1 << 15
	m := make(map[int]*[4]int, n)
	for i := range n {
		m[i*2654435761%(1<<20)] = &[4]int{i, i * 3, i ^ 7, i + 1}
	}
	s := 0
	for r := range 8 {
		for k, v := range m {
			s += k + v[r&3]
		}
	}
	var buf [4096]byte
	for i := range 200 {
		buf[i] = byte(s)
		h := sha256.Sum256(buf[:])
		s += int(h[0])
	}
	refSink.Add(uint64(s))
}

// refSample is one run of the kernel.
type refSample struct{ wall, cpu time.Duration }

// hostRef runs the reference kernel on one goroutine per engine worker
// at once, loading the host as the workloads do. It runs in the helper
// process, whose CPU time is the kernel's.
func hostRef() refSample {
	t, cpu := time.Now(), processCPU()
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range refChunks {
				refChunk()
			}
		}()
	}
	wg.Wait()
	return refSample{wall: time.Since(t), cpu: processCPU() - cpu}
}

// scale turns the times taken in one segment into reference-host time.
type scale struct {
	wall float64 // for a segment's totals: wall time, request rates
	cpu  float64 // for CPU times and single requests' percentiles
}

// unscaled is the scale of a run that does not scale (the traced run).
var unscaled = scale{1, 1}

// hostScale is the scale of a segment between the kernel runs before
// and after.
func hostScale(before, after refSample) scale {
	return scale{
		wall: 2 * float64(refNominal) / float64(before.wall+after.wall),
		cpu:  2 * float64(workers*refNominal) / float64(before.cpu+after.cpu),
	}
}

// serveHostRef is the helper process's loop: for every line read from
// r it runs the kernel and writes its wall and CPU time in nanoseconds.
func serveHostRef(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		k := hostRef()
		if _, err := fmt.Fprintln(w, k.wall.Nanoseconds(), k.cpu.Nanoseconds()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// refClock hands out scales for consecutive timed segments: each
// segment's "after" kernel run is the next one's "before". A disabled
// clock (the traced run, whose timings have no bound) starts no helper
// and scales by 1.
type refClock struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	last refSample
	all  []refSample // every kernel run, for the run's log line
}

// newRefClock starts the helper process and takes the first kernel
// time. The caller closes the clock.
func newRefClock(on bool) (*refClock, error) {
	c := &refClock{}
	if !on {
		return c, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c.cmd = exec.Command(self, "-hostref")
	c.cmd.Stderr = os.Stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(out)
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start host reference: %w", err)
	}
	if c.last, err = c.measure(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *refClock) measure() (refSample, error) {
	if _, err := io.WriteString(c.in, "run\n"); err != nil {
		return refSample{}, fmt.Errorf("host reference: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return refSample{}, fmt.Errorf("host reference: %w", err)
	}
	f := strings.Fields(line)
	if len(f) != 2 {
		return refSample{}, fmt.Errorf("host reference: malformed answer %q", line)
	}
	wall, err1 := strconv.ParseInt(f[0], 10, 64)
	cpu, err2 := strconv.ParseInt(f[1], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return refSample{}, fmt.Errorf("host reference: %w", err)
	}
	k := refSample{wall: time.Duration(wall), cpu: time.Duration(cpu)}
	c.all = append(c.all, k)
	return k, nil
}

// next ends the current segment and returns its scale.
func (c *refClock) next() (scale, error) {
	if c.cmd == nil {
		return unscaled, nil
	}
	before := c.last
	var err error
	if c.last, err = c.measure(); err != nil {
		return scale{}, err
	}
	return hostScale(before, c.last), nil
}

// close stops the helper process and waits for it to exit.
func (c *refClock) close() {
	if c.cmd == nil {
		return
	}
	c.in.Close() // the helper exits at end of input
	if err := c.cmd.Wait(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: host reference:", err)
	}
	c.cmd = nil
}

// String gives the median kernel wall and CPU time, for the run's log
// line.
func (c *refClock) String() string {
	var wall, cpu []float64
	for _, k := range c.all {
		wall = append(wall, ms(k.wall))
		cpu = append(cpu, ms(k.cpu))
	}
	return fmt.Sprintf("reference kernel median %.1f ms wall, %.1f ms CPU", median(wall), median(cpu))
}
