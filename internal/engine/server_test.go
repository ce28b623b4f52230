package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func postJob(t *testing.T, srv *httptest.Server, sp Spec, query string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestServerSubmitPollResult is the service smoke test: submit a real
// (small) simulation, poll status until done, fetch the result, and
// verify a resubmit is served from the cache with identical bytes.
func TestServerSubmitPollResult(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	sp := smallSpec()
	resp, body := postJob(t, srv, sp, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Hash != sp.Hash() {
		t.Fatalf("hash = %s, want %s", st.Hash, sp.Hash())
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, srv, "/jobs/"+st.Hash)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after deadline", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, result := get(t, srv, "/jobs/"+st.Hash+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, result)
	}
	if resp.Header.Get("X-Engine-Cached") != "false" {
		t.Fatalf("X-Engine-Cached = %q on a fresh run", resp.Header.Get("X-Engine-Cached"))
	}
	if res, err := DecodeResult(result); err != nil || res.Cycles == 0 {
		t.Fatalf("result decode: %v (cycles=%d)", err, res.Cycles)
	}

	// Resubmitting the identical spec completes synchronously from the
	// engine (dedup against the done job) with the same bytes.
	resp, body = postJob(t, srv, sp, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, result) {
		t.Fatal("resubmitted result differs from original")
	}

	// A second engine sharing the cache serves it as a cache hit.
	e2 := New(Config{Workers: 1, Cache: e.Cache()})
	defer e2.Close()
	srv2 := httptest.NewServer(NewServer(e2))
	defer srv2.Close()
	resp, body = postJob(t, srv2, sp, "?wait=1")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Engine-Cached") != "true" {
		t.Fatalf("warm submit: %d, cached=%q", resp.StatusCode, resp.Header.Get("X-Engine-Cached"))
	}
	if !bytes.Equal(body, result) {
		t.Fatal("cache-served result differs from original")
	}
}

func TestServerBackpressure(t *testing.T) {
	bx := newBlockingExec()
	e := New(Config{Workers: 1, QueueDepth: 1, Exec: bx.exec})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	resp, _ := postJob(t, srv, Spec{Bench: "bs", Seed: 1}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-bx.started // worker parked; queue empty
	resp, _ = postJob(t, srv, Spec{Bench: "bs", Seed: 2}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	resp, body := postJob(t, srv, Spec{Bench: "bs", Seed: 3}, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(bx.release)
}

func TestServerErrors(t *testing.T) {
	bx := newBlockingExec()
	close(bx.release)
	e := New(Config{Workers: 1, Exec: bx.exec})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	// Malformed body.
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}

	// Invalid spec (unknown tracking mode).
	resp, body := postJob(t, srv, Spec{Bench: "bs", Protocol: ProtocolSpec{Tracking: "psychic"}}, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d %s", resp.StatusCode, body)
	}

	// Unknown hash.
	resp, _ = get(t, srv, "/jobs/ffffffffffff")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	resp, _ = get(t, srv, "/jobs/ffffffffffff/result")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result: %d", resp.StatusCode)
	}
}

func TestServerMetricsAndHealth(t *testing.T) {
	bx := newBlockingExec()
	close(bx.release)
	e := New(Config{Workers: 1, Exec: bx.exec})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	resp, _ := postJob(t, srv, Spec{Bench: "bs"}, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{"engine.jobs_submitted", "engine.jobs_done", "engine.cache.puts", "engine.queue_depth"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	resp, body = get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

// TestServerRejectsOversizeBody: job bodies beyond MaxJobBody must fail
// with 413, not be buffered or half-parsed.
func TestServerRejectsOversizeBody(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	huge := append([]byte(`{"bench":"`), bytes.Repeat([]byte("x"), MaxJobBody+1)...)
	huge = append(huge, []byte(`"}`)...)
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: %d, want 413", resp.StatusCode)
	}
	if st := e.Stats(); st.Submitted != 0 {
		t.Fatalf("oversize body reached the engine: %+v", st)
	}
}

// TestServerServesRetiredJobFromCache: after a job is evicted from the
// in-memory index, GET /jobs/{hash} and /jobs/{hash}/result are still
// answered from the result cache.
func TestServerServesRetiredJobFromCache(t *testing.T) {
	e := New(Config{Workers: 1, RetainJobs: 1, Exec: func(ctx context.Context, sp Spec) ([]byte, error) {
		return []byte(`{"bench":"` + sp.Bench + `"}`), nil
	}})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	first := Spec{Bench: "early"}
	if _, err := e.Run(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	// Push enough later jobs through to force "early" out of the index.
	for i := 0; i < 5; i++ {
		if _, err := e.Run(context.Background(), Spec{Bench: fmt.Sprintf("later-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	hash := first.Normalized().Hash()
	if _, live := e.Job(hash); live {
		t.Fatal("early job still in the index; retention not exercised")
	}

	resp, body := get(t, srv, "/jobs/"+hash)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status of retired job: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != Done.String() || !st.Cached {
		t.Fatalf("retired status = %+v, want Done/cached", st)
	}

	resp, body = get(t, srv, "/jobs/"+hash+"/result")
	if resp.StatusCode != http.StatusOK || string(body) != `{"bench":"early"}` {
		t.Fatalf("retired result: %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Engine-Cached") != "true" {
		t.Fatal("retired result not marked cached")
	}
}

// metricNames are GET /metrics' lines, in order: the engine's nine job
// counters sorted by name, then the live gauges and the cache counters.
var metricNames = []string{
	"engine.cache_hits", "engine.dedup_hits", "engine.jobs_canceled",
	"engine.jobs_done", "engine.jobs_evicted", "engine.jobs_failed",
	"engine.jobs_submitted", "engine.jobs_timed_out", "engine.queue_rejects",
	"engine.queue_depth", "engine.running", "engine.jobs_known",
	"engine.cache.entries", "engine.cache.hits", "engine.cache.disk_hits",
	"engine.cache.misses", "engine.cache.puts", "engine.cache.evictions",
}

// scrapeMetrics fetches GET /metrics and returns its names in order and
// its values by name.
func scrapeMetrics(srv *httptest.Server) ([]string, map[string]uint64, error) {
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var names []string
	vals := make(map[string]uint64)
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var name string
		var v uint64
		if _, err := fmt.Sscan(line, &name, &v); err != nil {
			return nil, nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		names = append(names, name)
		vals[name] = v
	}
	return names, vals, nil
}

// TestCountersUnderConcurrentReads runs jobs on four workers while
// other goroutines scrape GET /metrics and Engine.Stats: the engine's
// counters are the only ones shared across goroutines, so under -race
// this is their data-race check. No increment may be lost, and no
// reader may see jobs_done go backwards.
func TestCountersUnderConcurrentReads(t *testing.T) {
	bx := newBlockingExec()
	close(bx.release)
	const jobs = 64
	e := New(Config{Workers: 4, QueueDepth: jobs, Exec: bx.exec})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(viaHTTP bool) {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				done := e.Stats().Done
				if viaHTTP {
					_, vals, err := scrapeMetrics(srv)
					if err != nil {
						t.Error(err)
						return
					}
					done = vals["engine.jobs_done"]
				}
				if done < last {
					t.Errorf("jobs_done went from %d to %d", last, done)
					return
				}
				last = done
			}
		}(r > 0)
	}

	var submitters sync.WaitGroup
	for g := 0; g < 2; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			for i := g; i < jobs; i += 2 {
				j, err := e.Submit(Spec{Bench: fmt.Sprintf("s%d", i)})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := j.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	submitters.Wait()
	close(stop)
	readers.Wait()

	if st := e.Stats(); st.Submitted != jobs || st.Done != jobs {
		t.Fatalf("Stats: submitted=%d done=%d, want %d each", st.Submitted, st.Done, jobs)
	}
	names, vals, err := scrapeMetrics(srv)
	if err != nil {
		t.Fatal(err)
	}
	if vals["engine.jobs_submitted"] != jobs || vals["engine.jobs_done"] != jobs {
		t.Fatalf("/metrics: jobs_submitted=%d jobs_done=%d, want %d each",
			vals["engine.jobs_submitted"], vals["engine.jobs_done"], jobs)
	}
	if strings.Join(names, " ") != strings.Join(metricNames, " ") {
		t.Fatalf("/metrics names:\n got %v\nwant %v", names, metricNames)
	}
}
