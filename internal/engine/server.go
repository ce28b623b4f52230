package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
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

// maxCellsInFlight bounds how many of one sweep's cells are submitted
// ahead of the cell being streamed, so one large sweep cannot fill the
// whole job queue; sweepBackoff is the pause before resubmitting when
// the queue is full and none of the sweep's own cells is in flight.
const (
	maxCellsInFlight = 16
	sweepBackoff     = 50 * time.Millisecond
)

// JobStatus is the service's JSON view of a job.
type JobStatus struct {
	Hash   string `json:"hash"`
	State  string `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Spec   Spec   `json:"spec"`
	Error  string `json:"error,omitempty"`
}

func statusOf(j *Job) JobStatus {
	st := JobStatus{
		Hash:   j.Hash,
		State:  j.State().String(),
		Cached: j.Cached(),
		Spec:   j.Spec,
	}
	if j.State().Terminal() {
		if _, err := j.Result(); err != nil {
			st.Error = err.Error()
		}
	}
	return st
}

// decodeBody decodes a JSON request body of at most limit bytes into v.
// It writes 413 for an oversize body and 400 for a malformed one, and
// reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
		return false
	}
	return true
}

// NewServer returns the hscserve HTTP API over an engine:
//
//	POST /jobs              submit a Spec; 202 queued, 200 done (cache
//	                        hit), 413 oversize body, 429 queue full,
//	                        503 draining
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
			if _, err := j.Wait(r.Context()); err != nil && r.Context().Err() != nil {
				httpError(w, http.StatusGatewayTimeout, err)
				return
			}
			writeResult(w, j)
			return
		}
		code := http.StatusAccepted
		if j.State() == Done {
			code = http.StatusOK
		}
		writeJSON(w, code, statusOf(j))
	})

	mux.HandleFunc("POST /sweeps", func(w http.ResponseWriter, r *http.Request) {
		serveSweep(e, w, r)
	})

	mux.HandleFunc("GET /jobs/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if j, ok := e.Job(hash); ok {
			writeJSON(w, http.StatusOK, statusOf(j))
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

// serveSweep answers POST /sweeps. It expands the sweep and streams
// NDJSON, one flushed line per object: a "sweep" header with the cell
// count, one "cell" line per cell in expansion order carrying its
// canonical result bytes (or its error), and a "summary" with the
// failed and cache-served counts. At most maxCellsInFlight cells are
// submitted ahead of the one being streamed.
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

	ctx := r.Context()
	jobs := make([]*Job, len(cells))
	errs := make([]error, len(cells))
	next := 0 // cells [i, next) are in flight
	failed, cached := 0, 0
	for i, cell := range cells {
		for next < len(cells) && next-i < maxCellsInFlight {
			j, err := e.Submit(cells[next])
			if errors.Is(err, ErrQueueFull) {
				if next > i {
					break // the oldest in-flight cell frees a slot first
				}
				select {
				case <-time.After(sweepBackoff):
					continue
				case <-ctx.Done():
					return
				}
			}
			jobs[next], errs[next] = j, err
			next++
		}

		line := sweepCell{Type: "cell", Index: i, Bench: cell.Bench, Label: spec.cellLabel(i)}
		var out []byte
		err := errs[i]
		if j := jobs[i]; j != nil {
			out, err = j.Wait(ctx)
			if ctx.Err() != nil {
				return // client gone; its submitted cells keep running
			}
			line.Hash, line.Cached = j.Hash, j.Cached()
		} else {
			line.Hash = cell.Hash()
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
		jobs[i] = nil
		if !emit(line) {
			return
		}
	}
	emit(map[string]any{"type": "summary", "total": len(cells), "failed": failed, "cached": cached})
}

// writeResult renders a terminal job's result bytes, a 202 status for
// a job still in flight, or the job's error.
func writeResult(w http.ResponseWriter, j *Job) {
	switch j.State() {
	case Queued, Running:
		writeJSON(w, http.StatusAccepted, statusOf(j))
	case Done:
		b, _ := j.Result()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Engine-Cached", fmt.Sprintf("%t", j.Cached()))
		w.WriteHeader(http.StatusOK)
		w.Write(b)
	case Canceled:
		_, err := j.Result()
		httpError(w, http.StatusConflict, err)
	default: // Failed
		_, err := j.Result()
		httpError(w, http.StatusInternalServerError, err)
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
