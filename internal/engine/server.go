package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// MaxJobBody and MaxSweepBody bound POST /jobs and POST /sweeps request
// bodies. A Spec is a few hundred bytes of JSON and a SweepSpec a few
// kilobytes; a megabyte is generous headroom, and anything larger is a
// client bug or abuse and is rejected with 413 before the decoder
// buffers it.
const (
	MaxJobBody   = 1 << 20
	MaxSweepBody = 1 << 20
)

// JobStatus is the service's JSON view of a job.
type JobStatus struct {
	Hash   string `json:"hash"`
	State  string `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Spec   Spec   `json:"spec"`
	Error  string `json:"error,omitempty"`
}

// statusOf renders one view of a job, so its state, cached flag and
// error always agree.
func statusOf(j *Job, v jobView) JobStatus {
	st := JobStatus{Hash: j.Hash, State: v.state.String(), Cached: v.cached, Spec: j.Spec}
	if v.err != nil {
		st.Error = v.err.Error()
	}
	return st
}

// decodeBody decodes a JSON request body of at most limit bytes into v.
// The body must be exactly one JSON value naming only fields v has, so
// a misspelled field or a second object is refused rather than ignored.
// It writes 413 for an oversize body and 400 for a malformed one, and
// reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
		return false
	}
	httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
	return false
}

// NewServer returns the hscserve HTTP API over an engine:
//
//	POST /jobs              submit a Spec; 202 queued, 200 done (cache
//	                        hit), 400 bad or inexact spec, 413 oversize
//	                        body, 429 queue full, 503 draining
//	GET  /jobs/{hash}       job status (cache-backed for retired jobs)
//	GET  /jobs/{hash}/result  canonical result JSON; 202 while running
//	POST /sweeps            submit a SweepSpec; streams NDJSON cell
//	                        results in expansion order; 413 oversize
//	                        body, 400 bad sweep (see serveSweep)
//	GET  /metrics           engine + cache counters (text)
//	GET  /healthz           liveness
//
// POST /jobs?wait=1 blocks until the job completes (bounded by the
// request context), then behaves like GET .../result.
//
// Jobs retired from the in-memory index (Config.RetainJobs) remain
// readable: both GET endpoints fall back to the content-addressed
// result cache and synthesize a done/cached view.
func NewServer(e *Engine) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var sp Spec
		if !decodeBody(w, r, MaxJobBody, "spec", &sp) {
			return
		}
		if err := sp.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		j, err := e.Submit(sp)
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if r.URL.Query().Get("wait") != "" {
			select {
			case <-j.Done():
			case <-r.Context().Done():
				httpError(w, http.StatusGatewayTimeout, r.Context().Err())
				return
			}
			writeResult(w, j)
			return
		}
		v := j.view()
		code := http.StatusAccepted
		if v.state == Done {
			code = http.StatusOK
		}
		writeJSON(w, code, statusOf(j, v))
	})

	mux.HandleFunc("POST /sweeps", func(w http.ResponseWriter, r *http.Request) {
		serveSweep(e, w, r)
	})

	mux.HandleFunc("GET /jobs/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if j, ok := e.Job(hash); ok {
			writeJSON(w, http.StatusOK, statusOf(j, j.view()))
			return
		}
		if _, ok := e.CachedResult(hash); ok {
			// Retired from the index but memoized: the spec is no
			// longer known, the state and result are.
			writeJSON(w, http.StatusOK, JobStatus{Hash: hash, State: Done.String(), Cached: true})
			return
		}
		httpError(w, http.StatusNotFound, errors.New("unknown job"))
	})

	mux.HandleFunc("GET /jobs/{hash}/result", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if j, ok := e.Job(hash); ok {
			writeResult(w, j)
			return
		}
		if b, ok := e.CachedResult(hash); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Engine-Cached", "true")
			w.WriteHeader(http.StatusOK)
			w.Write(b)
			return
		}
		httpError(w, http.StatusNotFound, errors.New("unknown job"))
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		st := e.Stats()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%-48s %12d\n", "engine.cache_hits", st.CacheHits)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.dedup_hits", st.DedupHits)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.jobs_canceled", st.Canceled)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.jobs_done", st.Done)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.jobs_evicted", st.Evicted)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.jobs_failed", st.Failed)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.jobs_submitted", st.Submitted)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.jobs_timed_out", st.TimedOut)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.queue_rejects", st.Rejected)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.queue_depth", st.QueueDepth)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.running", st.Running)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.jobs_known", st.Jobs)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.cache.entries", st.Cache.Entries)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.cache.hits", st.Cache.Hits)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.cache.disk_hits", st.Cache.DiskHits)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.cache.misses", st.Cache.Misses)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.cache.puts", st.Cache.Puts)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.cache.evictions", st.Cache.Evictions)
		fmt.Fprintf(w, "%-48s %12d\n", "engine.cache.corrupt", st.Cache.Corrupt)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	return mux
}

// sweepCell is one "cell" line of a POST /sweeps stream.
type sweepCell struct {
	Type   string          `json:"type"`
	Index  int             `json:"index"`
	Hash   string          `json:"hash"`
	Bench  string          `json:"bench"`
	Label  string          `json:"label,omitempty"`
	State  string          `json:"state"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// errClientGone stops a sweep whose stream can no longer be written.
var errClientGone = errors.New("engine: sweep client gone")

// serveSweep answers POST /sweeps. It expands the sweep and streams
// NDJSON, one flushed line per object: a "sweep" header with the cell
// count, one "cell" line per cell in expansion order carrying its
// canonical result bytes (or its error), and a "summary" with the
// failed and cache-served counts. The cells run through Engine.Batch.
//
// The sweep lives only as long as its request. A client that loses the
// stream re-POSTs the same sweep: finished cells are then cache hits
// and still-running cells join their live job (Submit's singleflight),
// so nothing is simulated twice.
func serveSweep(e *Engine, w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if !decodeBody(w, r, MaxSweepBody, "sweep", &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cells, err := spec.Cells()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	spec = spec.Normalized()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false // client gone
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !emit(map[string]any{"type": "sweep", "total": len(cells)}) {
		return
	}

	failed, cached := 0, 0
	err = e.Batch(r.Context(), cells, func(i int, j *Job, out []byte, err error) error {
		line := sweepCell{Type: "cell", Index: i, Bench: cells[i].Bench, Label: spec.cellLabel(i)}
		if j != nil {
			line.Hash, line.Cached = j.Hash, j.Cached()
		} else {
			line.Hash = cells[i].Hash()
		}
		if err != nil {
			line.State, line.Error = "failed", err.Error()
			failed++
		} else {
			line.State, line.Result = "done", out
			if line.Cached {
				cached++
			}
		}
		if !emit(line) {
			return errClientGone
		}
		return nil
	})
	if err != nil {
		return // client gone; its submitted cells keep running
	}
	emit(map[string]any{"type": "summary", "total": len(cells), "failed": failed, "cached": cached})
}

// writeResult renders a terminal job's result bytes, a 202 status for
// a job still in flight, or the job's error.
func writeResult(w http.ResponseWriter, j *Job) {
	v := j.view()
	switch v.state {
	case Queued, Running:
		writeJSON(w, http.StatusAccepted, statusOf(j, v))
	case Done:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Engine-Cached", strconv.FormatBool(v.cached))
		w.WriteHeader(http.StatusOK)
		w.Write(v.result)
	case Canceled:
		httpError(w, http.StatusConflict, v.err)
	default: // Failed
		httpError(w, http.StatusInternalServerError, v.err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
