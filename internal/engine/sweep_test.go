package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSweepCellsExpansionOrderAndDefaults(t *testing.T) {
	sw := SweepSpec{
		Benches:  []string{"bs", "tq"},
		Variants: []ProtocolSpec{{}, {Tracking: "owner+sharers", LLCWriteBack: true, UseL3OnWT: true}},
		Points: []SweepPoint{
			{Label: "p1", Topology: TopologySpec{NumCorePairs: 1}, Threads: 2},
			{Label: "p2", Topology: TopologySpec{NumCorePairs: 2}, Threads: 4},
		},
		Scale: 1,
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("expanded to %d cells, want 8", len(cells))
	}
	// Bench-major, then variant, then point.
	if cells[0].Bench != "bs" || cells[3].Bench != "bs" || cells[4].Bench != "tq" {
		t.Fatalf("bench-major order violated: %v", cells)
	}
	if cells[0].Protocol.Tracking != "" || cells[2].Protocol.Tracking != "owner+sharers" {
		t.Fatalf("variant order violated: %v", cells)
	}
	if cells[0].Threads != 2 || cells[1].Threads != 4 {
		t.Fatalf("per-point threads not honored: %d %d", cells[0].Threads, cells[1].Threads)
	}
	// Cells are normalized, so their hashes are exactly what POST /jobs
	// would assign to the same spec.
	manual := Spec{Bench: "bs", Scale: 1, Threads: 2, Topology: TopologySpec{NumCorePairs: 1}}
	if cells[0].Hash() != manual.Normalized().Hash() {
		t.Fatal("cell hash differs from single-job hash for the same spec")
	}
}

// TestSweepNormalizationEquivalentCells: sweeps that differ only in
// spelled-out defaults expand into the same cell hashes, which is what
// lets a re-POSTed sweep find its cells in the cache; distinct sweeps
// do not.
func TestSweepNormalizationEquivalentCells(t *testing.T) {
	hashes := func(s SweepSpec) []string {
		t.Helper()
		cells, err := s.Cells()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = c.Hash()
		}
		return out
	}
	a := hashes(SweepSpec{Benches: []string{"bs"}})
	b := hashes(SweepSpec{Benches: []string{"bs"}, Scale: 1, Config: ConfigEval,
		Variants: []ProtocolSpec{{}}, Points: []SweepPoint{{}}})
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("normalization-equivalent sweeps expand differently: %v vs %v", a, b)
	}
	if c := hashes(SweepSpec{Benches: []string{"tq"}}); c[0] == a[0] {
		t.Fatal("distinct sweeps share a cell hash")
	}
}

func TestSweepCellLabels(t *testing.T) {
	sw := SweepSpec{
		Benches:  []string{"bs", "tq"},
		Variants: []ProtocolSpec{{}, {Tracking: "owner"}},
		Points:   []SweepPoint{{Label: "small"}, {}},
	}.Normalized()
	want := []string{"small", "v0p1", "small", "v1p1", "small", "v0p1", "small", "v1p1"}
	for i, w := range want {
		if got := sw.cellLabel(i); got != w {
			t.Fatalf("cellLabel(%d) = %q, want %q", i, got, w)
		}
	}
}

func TestSweepValidateRejects(t *testing.T) {
	if err := (SweepSpec{}).Validate(); err == nil {
		t.Fatal("empty sweep validated")
	}
	if err := (SweepSpec{Benches: []string{"no-such-bench"}}).Validate(); err == nil {
		t.Fatal("unknown bench validated")
	}
	bad := SweepSpec{Benches: []string{"bs"}, Points: []SweepPoint{{Topology: TopologySpec{DirBanks: 3}}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("bad topology validated: %v", err)
	}
}

func TestSweepCellCap(t *testing.T) {
	benches := make([]string, 70)
	for i := range benches {
		benches[i] = "bs"
	}
	points := make([]SweepPoint, 70)
	sw := SweepSpec{Benches: benches, Points: points}
	if _, err := sw.Cells(); err == nil || !strings.Contains(err.Error(), "max") {
		t.Fatalf("4900-cell sweep not capped: %v", err)
	}
}

// FuzzSweepSpec decodes arbitrary bytes into a SweepSpec. No input may
// panic, and every sweep Validate accepts expands to at most
// MaxSweepCells cells, one per bench, variant and point, each of them
// normalized, labelled and accepted by Spec.Validate.
func FuzzSweepSpec(f *testing.F) {
	tracked, _ := NamedVariant("sharersTracking")
	for _, sw := range []SweepSpec{
		evalSweep(),
		{Benches: []string{"tq", "hs_mutex"}, Variants: []ProtocolSpec{tracked}, Scale: 1, Points: []SweepPoint{
			{Label: "pairs=4", Topology: TopologySpec{NumCorePairs: 4}, Threads: 8},
			{Label: "CUs=8", Topology: TopologySpec{NumCUs: 8}, Threads: 8},
			{Label: "slots=0", Topology: TopologySpec{StoreBufferZero: true}, Threads: 8},
		}},
	} {
		b, err := json.Marshal(sw)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"benches":["cedd"],"scale":1000000}`))
	f.Add([]byte(`{"benches":["bs"],"points":[{"topology":{"numCorePairs":1073741824}}]}`))
	f.Add([]byte(`{"benches":["bs","bs"],"variants":[{},{}],"points":[{},{},{}],"threads":9}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sw SweepSpec
		if json.Unmarshal(data, &sw) != nil || sw.Validate() != nil {
			return
		}
		cells, err := sw.Cells()
		if err != nil {
			t.Fatalf("accepted sweep does not expand: %v", err)
		}
		n := sw.Normalized()
		if want := len(n.Benches) * len(n.Variants) * len(n.Points); len(cells) != want || want > MaxSweepCells {
			t.Fatalf("accepted sweep expands to %d cells, want %d and at most %d", len(cells), want, MaxSweepCells)
		}
		for i, c := range cells {
			if c.Normalized() != c {
				t.Fatalf("cell %d is not normalized: %s", i, c.Canonical())
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("cell %d of an accepted sweep: %v", i, err)
			}
			if n.cellLabel(i) == "" {
				t.Fatalf("cell %d has no label", i)
			}
		}
	})
}

// TestNamedVariant round-trips all eight figure-legend names through
// core.Options.Named and pins the three specs perfbench resolves: their
// hashes key its result digests.
func TestNamedVariant(t *testing.T) {
	pinned := map[string]ProtocolSpec{
		"baseline":        {},
		"ownerTracking":   {Tracking: "owner", LLCWriteBack: true, UseL3OnWT: true},
		"sharersTracking": {Tracking: "owner+sharers", LLCWriteBack: true, UseL3OnWT: true},
	}
	for _, name := range []string{"baseline", "earlyResp", "noWBcleanVic", "noWBcleanVicLLC",
		"llcWB", "llcWB+useL3OnWT", "ownerTracking", "sharersTracking"} {
		v, err := NamedVariant(name)
		if err != nil {
			t.Fatal(err)
		}
		opts, err := v.Options()
		if err != nil {
			t.Fatalf("%s produced invalid options: %v", name, err)
		}
		if got := opts.Named(); got != name {
			t.Errorf("NamedVariant(%q) resolves to %q", name, got)
		}
		if want, ok := pinned[name]; ok && v != want {
			t.Errorf("NamedVariant(%q) = %+v, want %+v", name, v, want)
		}
	}
	for _, name := range []string{"psychic", "earlyResponse", ""} {
		if _, err := NamedVariant(name); err == nil {
			t.Errorf("unknown variant %q resolved", name)
		}
	}
}

// sweepRun is one parsed POST /sweeps NDJSON stream.
type sweepRun struct {
	total          int
	cells          []sweepCell // in stream order
	cached, failed int
	summary        bool
}

// readSweep parses stream lines until the body ends or, when stopAfter
// is positive, until that many cell lines have arrived.
func readSweep(t *testing.T, sc *bufio.Scanner, stopAfter int) sweepRun {
	t.Helper()
	var run sweepRun
	for sc.Scan() {
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		// A cell's "cached" is a bool and the summary's a count, so
		// each line type gets its own decode.
		switch head.Type {
		case "sweep", "summary":
			var l struct {
				Total  int `json:"total"`
				Cached int `json:"cached"`
				Failed int `json:"failed"`
			}
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatal(err)
			}
			if head.Type == "sweep" {
				run.total = l.Total
			} else {
				run.summary, run.cached, run.failed = true, l.Cached, l.Failed
			}
		case "cell":
			var c sweepCell
			if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
				t.Fatal(err)
			}
			run.cells = append(run.cells, c)
			if len(run.cells) == stopAfter {
				return run
			}
		default:
			t.Fatalf("unknown stream line type %q", head.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return run
}

// postSweep submits spec and reads its whole stream, which must end
// with a summary and carry every cell in expansion order.
func postSweep(t *testing.T, srv *httptest.Server, spec SweepSpec) sweepRun {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /sweeps: %d %s", resp.StatusCode, buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	run := readSweep(t, newLineScanner(resp.Body), 0)
	if !run.summary {
		t.Fatal("stream ended without a summary line")
	}
	if len(run.cells) != run.total {
		t.Fatalf("stream carried %d of %d cells", len(run.cells), run.total)
	}
	for i, c := range run.cells {
		if c.Index != i {
			t.Fatalf("line %d carries cell %d: stream not in expansion order", i, c.Index)
		}
	}
	return run
}

func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	return sc
}

// countingExec returns result bytes derived from the spec hash and
// counts executions: the "who actually simulated" probe.
func countingExec(n *atomic.Int64) func(context.Context, Spec) ([]byte, error) {
	return func(_ context.Context, sp Spec) ([]byte, error) {
		n.Add(1)
		return []byte(`{"hash":"` + sp.Normalized().Hash() + `"}`), nil
	}
}

// evalSweep is the small real-simulator sweep: one cheap bench at two
// protocol variants.
func evalSweep() SweepSpec {
	baseline, _ := NamedVariant("baseline")
	owner, _ := NamedVariant("ownerTracking")
	return SweepSpec{
		Benches:  []string{"bs"},
		Variants: []ProtocolSpec{baseline, owner},
		Points:   []SweepPoint{{Threads: 2}},
		Scale:    1,
	}
}

// TestSweepByteIdenticalToInProcess: every cell POST /sweeps streams
// is byte-identical to an in-process Engine.Run of the same cell.
func TestSweepByteIdenticalToInProcess(t *testing.T) {
	spec := evalSweep()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Config{Workers: 2})
	want := make([][]byte, len(cells))
	for i, cell := range cells {
		if want[i], err = ref.Run(context.Background(), cell); err != nil {
			t.Fatal(err)
		}
	}
	ref.Close()

	e := New(Config{Workers: 2})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	run := postSweep(t, srv, spec)
	if run.failed != 0 || run.total != len(cells) {
		t.Fatalf("sweep: total %d failed %d", run.total, run.failed)
	}
	for i, c := range run.cells {
		if c.Hash != cells[i].Hash() || c.State != "done" {
			t.Fatalf("cell %d = %+v", i, c)
		}
		if !bytes.Equal(c.Result, want[i]) {
			t.Fatalf("cell %d differs from the in-process run:\nserver:  %s\nin-proc: %s", i, c.Result, want[i])
		}
	}
}

// TestSweepRepeatServedFromCache: a repeat sweep executes nothing. The
// queue is smaller than the sweep, so the in-flight window also waits
// out ErrQueueFull on its own oldest cell.
func TestSweepRepeatServedFromCache(t *testing.T) {
	var execs atomic.Int64
	e := New(Config{Workers: 1, QueueDepth: 1, Exec: countingExec(&execs)})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	spec := SweepSpec{
		Benches: []string{"bs", "tq"},
		Points: []SweepPoint{
			{Threads: 2},
			{Threads: 4, Topology: TopologySpec{NumCorePairs: 2}},
		},
		Scale: 1,
	}

	first := postSweep(t, srv, spec)
	if first.failed != 0 || first.total != 4 || first.cached != 0 {
		t.Fatalf("first run: total %d failed %d cached %d", first.total, first.failed, first.cached)
	}
	if got := execs.Load(); got != 4 {
		t.Fatalf("first run executed %d cells, want 4", got)
	}

	second := postSweep(t, srv, spec)
	if second.failed != 0 || second.cached != 4 {
		t.Fatalf("repeat sweep: %d/4 cells cached, %d failed", second.cached, second.failed)
	}
	if got := execs.Load(); got != 4 {
		t.Fatalf("repeat sweep re-executed: %d executions, want 4", got)
	}
	for i, c := range second.cells {
		if !c.Cached || !bytes.Equal(c.Result, first.cells[i].Result) {
			t.Fatalf("cell %d: cached=%v, bytes changed between runs", i, c.Cached)
		}
	}
}

// TestSweepRejects: an oversize body is refused with 413, and a
// malformed, inexact (unknown field, second value), invalid or over-cap
// sweep with 400, before any cell runs.
func TestSweepRejects(t *testing.T) {
	var execs atomic.Int64
	e := New(Config{Workers: 1, Exec: countingExec(&execs)})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	huge := append([]byte(`{"benches":["`), bytes.Repeat([]byte("x"), MaxSweepBody+1)...)
	huge = append(huge, `"]}`...)
	overCap, _ := json.Marshal(SweepSpec{
		Benches: []string{"bs", "tq"},
		Points:  make([]SweepPoint, MaxSweepCells/2+1),
	})
	for _, tc := range []struct {
		name string
		body []byte
		code int
	}{
		{"oversize", huge, http.StatusRequestEntityTooLarge},
		{"malformed", []byte(`{"benches":`), http.StatusBadRequest},
		{"unknown field", []byte(`{"benches":["bs"],"scal":3}`), http.StatusBadRequest},
		{"second value", []byte(`{"benches":["bs"]}{"benches":["tq"]}`), http.StatusBadRequest},
		{"no benches", []byte(`{}`), http.StatusBadRequest},
		{"unknown bench", []byte(`{"benches":["no-such-bench"]}`), http.StatusBadRequest},
		{"over MaxSweepCells", overCap, http.StatusBadRequest},
	} {
		resp, err := srv.Client().Post(srv.URL+"/sweeps", "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	if st := e.Stats(); execs.Load() != 0 || st.Submitted != 0 {
		t.Fatalf("a rejected sweep reached the engine: %d executions, %+v", execs.Load(), st)
	}
}

// TestSweepResumeAfterDisconnect: a client that drops its stream and
// re-POSTs gets every cell, and nothing is simulated twice: finished
// cells come from the cache and still-running cells join their job.
func TestSweepResumeAfterDisconnect(t *testing.T) {
	var execs atomic.Int64
	gate := make(chan struct{})
	exec := func(ctx context.Context, sp Spec) ([]byte, error) {
		if sp.Bench == "tq" {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return countingExec(&execs)(ctx, sp)
	}
	e := New(Config{Workers: 2, Exec: exec})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	spec := SweepSpec{
		Benches: []string{"bs", "tq"},
		Points:  []SweepPoint{{Threads: 2}, {Threads: 4}, {Threads: 8}},
		Scale:   1,
	}
	body, _ := json.Marshal(spec)
	open := func() (*http.Response, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/sweeps", bytes.NewReader(body))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, cancel
	}

	// First client: reads the three bs cells, then drops the stream
	// while the tq cells are parked in the executor.
	resp, cancel := open()
	partial := readSweep(t, newLineScanner(resp.Body), 3)
	cancel()
	resp.Body.Close()
	if partial.total != 6 || len(partial.cells) != 3 {
		t.Fatalf("first stream: total %d, %d cells", partial.total, len(partial.cells))
	}

	// Re-POST while the tq cells are still running: the bs cells are
	// cache hits and arrive at once; the tq cells join their live jobs.
	resp, cancel = open()
	defer cancel()
	defer resp.Body.Close()
	sc := newLineScanner(resp.Body)
	head := readSweep(t, sc, 3)
	for _, c := range head.cells {
		if !c.Cached || c.Bench != "bs" {
			t.Fatalf("resumed bs cell = %+v, want a cache hit", c)
		}
	}
	if st := e.Stats(); st.DedupHits != 3 {
		t.Fatalf("resumed tq cells: %d dedup hits, want 3 (joined live jobs)", st.DedupHits)
	}
	close(gate)
	rest := readSweep(t, sc, 0)
	if !rest.summary || len(rest.cells) != 3 || rest.failed != 0 || rest.cached != 3 {
		t.Fatalf("resumed stream tail: summary=%v cells=%d failed=%d cached=%d",
			rest.summary, len(rest.cells), rest.failed, rest.cached)
	}
	for i, c := range rest.cells {
		if c.Index != 3+i || c.State != "done" || len(c.Result) == 0 {
			t.Fatalf("resumed tq cell = %+v", c)
		}
	}
	if got := execs.Load(); got != 6 {
		t.Fatalf("%d executions for a 6-cell sweep resumed once, want 6", got)
	}
}

// TestSweepWaitsOutForeignQueueFull: when other work fills the queue
// and none of the sweep's own cells is in flight, the sweep backs off
// and retries instead of failing the cell.
func TestSweepWaitsOutForeignQueueFull(t *testing.T) {
	bx := newBlockingExec()
	e := New(Config{Workers: 1, QueueDepth: 1, Exec: bx.exec})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	if _, err := e.Submit(Spec{Bench: "bs", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-bx.started // worker parked
	if _, err := e.Submit(Spec{Bench: "bs", Seed: 2}); err != nil {
		t.Fatal(err) // queue now full
	}
	// Free the queue only once the sweep has been turned away by it.
	go func() {
		for e.Stats().Rejected == 0 {
			time.Sleep(time.Millisecond)
		}
		close(bx.release)
	}()
	run := postSweep(t, srv, SweepSpec{Benches: []string{"tq"}})
	if run.failed != 0 || run.cells[0].State != "done" {
		t.Fatalf("sweep behind a full queue: %+v", run)
	}
}
