package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hscsim"
)

const (
	// missPoolSize bounds the never-seen specs one run can request; a
	// client that exhausts its half sends hot requests instead.
	missPoolSize = 4000
	// serveSetups is how many servers a run starts; setup_s is the median.
	serveSetups = 3
	// replayedMisses is how many served misses the traced run replays
	// in-process for the simulator layers' counts.
	replayedMisses = 16
	// batch is the request count serve-mixed reports a "sweep" over.
	batch = 1000
	// clkTck is the kernel's clock tick for /proc CPU times.
	clkTck = 100
	// window is the length of one segment of the request loop. Rates and
	// percentiles are taken per segment and a run reports the median
	// segment, so a burst of load from outside the benchmark moves one
	// segment, not the result.
	window = time.Second
)

// Request classes of the mix.
const (
	hotPost  = iota // POST /jobs?wait=1 on a warmed spec
	hotGet          // GET /jobs/{hash}/result on a warmed hash
	missPost        // POST /jobs?wait=1 on a never-seen spec
)

var classNames = [...]string{"hot-post", "hot-get", "miss"}

var serveBenches = []string{"bs", "pad", "sc", "cedt"}

// serveHot is the hot set: small specs warmed during set-up.
func serveHot() ([]cell, error) {
	var cs []cell
	for _, b := range serveBenches {
		for _, v := range []string{"baseline", "ownerTracking", "sharersTracking"} {
			for s := int64(0); s < 5; s++ {
				c, err := smallCell(fmt.Sprintf("serve/hot/%s/%s/s%d", b, v, s), b, v, s)
				if err != nil {
					return nil, err
				}
				cs = append(cs, c)
			}
		}
	}
	return cs, nil
}

// serveMissPool is the fixed pool of small specs the hot set never
// contains; the seed orders it.
func serveMissPool() ([]cell, error) {
	cs := make([]cell, 0, missPoolSize)
	for k := range missPoolSize {
		b, seed := serveBenches[k%len(serveBenches)], int64(100+k/len(serveBenches))
		c, err := smallCell(fmt.Sprintf("serve/miss/%s/s%d", b, seed), b, "baseline", seed)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// server is one hscserve process with its own cache directory.
type server struct {
	cmd  *exec.Cmd
	base string
	dir  string
	log  bytes.Buffer
	done chan struct{}
}

func startServer(e *env, cacheEntries int) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	if err := os.MkdirAll(e.opt.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.opt.out, "serve-cache-")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, dir: dir, done: make(chan struct{})}
	s.cmd = exec.Command(e.opt.hscserve, "-addr", addr, "-workers", strconv.Itoa(workers),
		"-cache", dir, "-cache-entries", strconv.Itoa(cacheEntries))
	s.cmd.Stderr = &s.log
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start hscserve: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is reported through s.log
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		select {
		case <-s.done:
			os.RemoveAll(dir)
			return nil, fmt.Errorf("hscserve exited during start-up: %s", s.log.String())
		default:
		}
		if resp, err := probe.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	s.stop()
	return nil, errors.New("hscserve did not become healthy within 20 s")
}

// stop terminates the server, waits for it to exit and removes its cache.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	os.RemoveAll(s.dir)
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// cpu is the server's user+system CPU time.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + s.pid() + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// metrics reads the server's /metrics counters.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// conn is one client connection: a closed-loop caller that waits for
// each reply, like hscsweep -server.
type conn struct {
	t    *http.Transport
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{t: t, c: &http.Client{Transport: t, Timeout: time.Minute}, base: base}
}

func (c *conn) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %.200s", method, path, resp.Status, b)
	}
	return b, nil
}

// reqCell is a cell with its request body and hash.
type reqCell struct {
	cell
	body []byte
	hash string
}

// serveRun is one serve-mixed run against one server.
type serveRun struct {
	e      *env
	srv    *server
	hot    []reqCell
	pool   []cell
	perm   []int
	missed [clients]int // misses each client has taken from its share of perm
	short  atomic.Bool  // a client ran out of miss specs
}

type sample struct {
	class int
	lat   time.Duration
}

// segment is one window of the closed loop.
type segment struct {
	samples []sample
	misses  []cell // served miss cells, in the order sent
	wall    time.Duration
	cpu     time.Duration // server CPU over the segment
	scale   scale         // to reference-host time (see hostref.go)
}

// loopResult is one closed-loop phase.
type loopResult struct {
	segs []segment
}

func (res loopResult) requests() int {
	n := 0
	for _, sg := range res.segs {
		n += len(sg.samples)
	}
	return n
}

func (res loopResult) misses() []cell {
	var cs []cell
	for _, sg := range res.segs {
		cs = append(cs, sg.misses...)
	}
	return cs
}

// client is one closed-loop caller's state, kept across segments.
type client struct {
	cn    *conn
	rng   *rand.Rand
	block []int // the rest of the current 100-request mix block
}

// request sends one request and checks the reply against its spec's
// committed digest; a miss's new result is also decoded, as a client
// does with a result it has not seen. It returns the HTTP round trip.
func (r *serveRun) request(cn *conn, class int, c reqCell, parent int) (time.Duration, error) {
	tr := r.e.tr
	method, path, span, body := http.MethodPost, "/jobs?wait=1", "Submit→wait HTTP POST /jobs?wait=1", c.body
	switch class {
	case hotGet:
		method, path, span, body = http.MethodGet, "/jobs/"+c.hash+"/result", "HTTP GET /jobs/{hash}/result", nil
	case missPost:
		id := tr.begin(parent, "JobSpec.Hash")
		c.hash = c.spec.Hash()
		tr.end(id)
		var err error
		if body, err = json.Marshal(c.spec); err != nil {
			return 0, err
		}
	}
	id := tr.begin(parent, span)
	t := time.Now()
	b, err := cn.do(method, path, body)
	lat := time.Since(t)
	tr.end(id)
	if err != nil {
		return lat, fmt.Errorf("%s: %w", c.label, err)
	}
	if err := r.e.digests.check(c.label, b); err != nil {
		return lat, err
	}
	if class == missPost {
		id = tr.begin(parent, "DecodeJobResult")
		_, err = hscsim.DecodeJobResult(b)
		tr.end(id)
	}
	return lat, err
}

// warm submits the whole hot set from two connections.
func (r *serveRun) warm() {
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := newConn(r.srv.base)
			defer cn.t.CloseIdleConnections()
			for i := c; i < len(r.hot); i += clients {
				_, err := r.request(cn, hotPost, r.hot[i], 0)
				r.e.tally.op(err)
			}
		}()
	}
	wg.Wait()
}

// loop runs the closed-loop request mix from two connections until d
// has passed, in segments of one window. Between segments the clients
// pause while clk runs the reference kernel.
func (r *serveRun) loop(d time.Duration, round int, clk *refClock) (loopResult, error) {
	cls := make([]*client, clients)
	for c := range cls {
		cls[c] = &client{cn: newConn(r.srv.base), rng: rand.New(rand.NewSource(r.e.opt.seed*1_000_003 + int64(round*clients+c+1)))}
		defer cls[c].cn.t.CloseIdleConnections()
	}
	var res loopResult
	for t0 := time.Now(); len(res.segs) == 0 || time.Since(t0) < d; {
		sg, err := r.segment(cls)
		if err != nil {
			return res, err
		}
		if sg.scale, err = clk.next(); err != nil {
			return res, err
		}
		res.segs = append(res.segs, sg)
	}
	return res, nil
}

// segment runs every client for one window and waits for each one's
// last request to finish.
func (r *serveRun) segment(cls []*client) (segment, error) {
	var sg segment
	cpu0, err := r.srv.cpu()
	if err != nil {
		return sg, err
	}
	per := make([][]sample, len(cls))
	perMiss := make([][]cell, len(cls))
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(window)
	for c, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if len(cl.block) == 0 {
					cl.block = mixBlock(cl.rng)
				}
				class := cl.block[0]
				cl.block = cl.block[1:]
				rc := r.hot[cl.rng.Intn(len(r.hot))]
				if class == missPost {
					// Client c takes every clients-th spec of the permuted pool.
					if k := r.missed[c]*clients + c; k < len(r.perm) {
						r.missed[c]++
						rc = reqCell{cell: r.pool[r.perm[k]]}
						perMiss[c] = append(perMiss[c], rc.cell)
					} else {
						class = hotPost
						r.short.Store(true)
					}
				}
				sp := r.e.tr.begin(0, classNames[class]+" "+rc.label)
				lat, err := r.request(cl.cn, class, rc, sp)
				per[c] = append(per[c], sample{class, lat})
				r.e.tr.end(sp)
				r.e.tally.op(err)
			}
		}()
	}
	wg.Wait()
	sg.wall = time.Since(t0)
	cpu1, err := r.srv.cpu()
	if err != nil {
		return sg, err
	}
	sg.cpu = cpu1 - cpu0
	for c := range cls {
		sg.samples = append(sg.samples, per[c]...)
		sg.misses = append(sg.misses, perMiss[c]...)
	}
	return sg, nil
}

// segmentStats is each segment's request rate, hit percentiles and
// server CPU per batch, in reference-host time, and every miss's round
// trip.
type segmentStats struct {
	reqPerS, hitP50, hitP99, cpuPerBatch, missMs []float64
}

func (res loopResult) stats() segmentStats {
	var st segmentStats
	for _, sg := range res.segs {
		var hits []time.Duration
		for _, s := range sg.samples {
			if s.class == missPost {
				st.missMs = append(st.missMs, ms(s.lat)*sg.scale.cpu)
			} else {
				hits = append(hits, s.lat)
			}
		}
		n := float64(len(sg.samples))
		st.reqPerS = append(st.reqPerS, n/sg.wall.Seconds()/sg.scale.wall)
		st.hitP50 = append(st.hitP50, ms(quantile(hits, 0.50))*sg.scale.cpu)
		st.hitP99 = append(st.hitP99, ms(quantile(hits, 0.99))*sg.scale.cpu)
		st.cpuPerBatch = append(st.cpuPerBatch, sg.cpu.Seconds()*batch/n*sg.scale.cpu)
	}
	return st
}

// mixBlock returns the next 100 request classes in a seeded order:
// 95 hot POSTs, 4 hot GETs and one miss, so every run has the same mix.
func mixBlock(rng *rand.Rand) []int {
	b := make([]int, 100)
	for i := 95; i < 99; i++ {
		b[i] = hotGet
	}
	b[99] = missPost
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// setupServe starts a server and warms the hot set: spawn → /healthz →
// every hot spec computed and cached.
func setupServe(e *env, hot []reqCell, pool []cell) (*serveRun, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(e, len(hot)/2)
	if err != nil {
		return nil, 0, err
	}
	r := &serveRun{e: e, srv: srv, hot: hot, pool: pool,
		perm: rand.New(rand.NewSource(e.opt.seed)).Perm(len(pool))}
	r.warm()
	return r, time.Since(t0), nil
}

func runServe(e *env) error {
	if e.opt.hscserve == "" {
		return errors.New("serve-mixed needs -hscserve")
	}
	cells, err := serveHot()
	if err != nil {
		return err
	}
	pool, err := serveMissPool()
	if err != nil {
		return err
	}
	hot := make([]reqCell, len(cells))
	for i, c := range cells {
		body, err := json.Marshal(c.spec)
		if err != nil {
			return err
		}
		hot[i] = reqCell{cell: c, body: body, hash: c.spec.Hash()}
	}

	clk, err := newRefClock(!e.tr.on)
	if err != nil {
		return err
	}
	defer clk.close()
	var setups []float64
	var r *serveRun
	for range serveSetups {
		run, d, err := setupServe(e, hot, pool)
		if err != nil {
			if r != nil {
				r.srv.stop()
			}
			return err
		}
		if r != nil {
			r.srv.stop()
		}
		r = run
		f, err := clk.next()
		if err != nil {
			r.srv.stop()
			return err
		}
		setups = append(setups, d.Seconds()*f.wall)
	}
	defer r.srv.stop()

	var prof bytes.Buffer
	if e.tr.on {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	m0, err := r.srv.metrics()
	if err != nil {
		return err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res, err := r.loop(time.Duration(e.opt.seconds)*time.Second, 0, clk)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	m1, err := r.srv.metrics()
	if err != nil {
		return err
	}
	if e.tr.on {
		pprof.StopCPUProfile()
	}
	if r.short.Load() {
		fmt.Fprintln(os.Stderr, "serve-mixed: a client exhausted its miss specs and sent hot requests instead")
	}
	n := float64(res.requests())
	st := res.stats()
	fmt.Fprintf(os.Stderr, "serve-mixed: %d requests (%d misses) in %d segments, seed %d, %s\n",
		res.requests(), len(st.missMs), len(res.segs), e.opt.seed, clk)

	if e.tr.on {
		return traceServe(e, r, prof.Bytes(), res, m0, m1, ms1.NumGC-ms0.NumGC)
	}
	rss, err := statusMB(r.srv.pid(), "VmHWM")
	if err != nil {
		return err
	}
	e.set("setup_s", "s", median(setups))
	rate := median(st.reqPerS)
	e.set("sweep_wall_s", "s", batch/rate)
	e.set("sweep_cpu_s", "s", median(st.cpuPerBatch))
	e.set("allocs_per_cell", "count", float64(ms1.Mallocs-ms0.Mallocs)/n)
	e.set("peak_rss_mb", "MB", rss)
	e.set("hit_p50_ms", "ms", median(st.hitP50))
	e.set("hit_p99_ms", "ms", median(st.hitP99))
	e.set("miss_p50_ms", "ms", median(st.missMs))
	e.set("req_per_s", "1/s", rate)
	return nil
}

// traceServe finishes serve-mixed's traced run: the client profile and
// spans cover the request loop; the server's share comes from /metrics
// and /proc; a few served misses are replayed in-process for the
// simulator layers' counts; an allocation pass repeats a short loop.
func traceServe(e *env, r *serveRun, prof []byte, res loopResult, m0, m1 map[string]float64, gcs uint32) error {
	var in layerInputs
	var err error
	if in.cpuNs, err = cpuByLayer(prof); err != nil {
		return err
	}
	n := float64(res.requests())
	var srvCPU time.Duration
	for _, sg := range res.segs {
		srvCPU += sg.cpu
	}
	in.ops = n
	in.gc = float64(gcs)
	in.wall = time.Duration(float64(time.Second) * batch / median(res.stats().reqPerS))
	d := func(k string) float64 { return m1[k] - m0[k] }
	in.serve = map[string]float64{
		"hscserve.cache_hits":     d("engine.cache.hits"),
		"hscserve.disk_hits":      d("engine.cache.disk_hits"),
		"hscserve.cache_misses":   d("engine.cache.misses"),
		"hscserve.puts":           d("engine.cache.puts"),
		"hscserve.cpu_us_per_req": float64(srvCPU.Microseconds()) / n,
		"hscserve.mem_hit_ratio":  0,
	}
	if h := d("engine.cache.hits") + d("engine.cache.disk_hits"); h > 0 {
		in.serve["hscserve.mem_hit_ratio"] = d("engine.cache.hits") / h
	}
	misses := res.misses()
	in.rp = replay(e, misses[:min(len(misses), replayedMisses)])

	var allocReqs int
	in.allocs = allocPass(func() {
		var ar loopResult
		ar, err = r.loop(2*time.Second, 1, &refClock{})
		allocReqs = ar.requests()
	})
	if err != nil {
		return err
	}
	in.allocOp = float64(max(allocReqs, 1))
	return finishTrace(e, in)
}
