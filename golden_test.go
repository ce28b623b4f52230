// Determinism goldens: one full CHAI run per protocol variant, hashed
// (canonical stats dump + every traced interconnect message) and pinned
// in testdata/golden_runs.json. The simulator's bit-for-bit determinism
// is load-bearing — the runtime oracle, the model checker, and the
// content-addressed job cache (engine.Cache keys results by spec hash,
// assuming rerun ≡ cached) all rest on it — so any change that perturbs
// a single event, message, or counter anywhere in a run fails here.
//
// The tq and sc hashes were generated on the seed binary-heap
// scheduler; the calendar-queue event loop and the value-typed messages
// carried in the interconnect's slot table reproduce them byte-for-byte,
// which is the central safety argument for both changes (see DESIGN.md,
// "Event loop"). The rscd and cedd hashes were generated while every
// wave still had a coroutine of its own; the reusable wave slots
// reproduce them. Regenerate (only for intentional
// simulation-visible changes, alongside an engine.Version bump) with:
//
//	go test -run TestGoldenRuns -update-goldens .
package hscsim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hscsim"
	"hscsim/internal/engine"
	"hscsim/internal/verify"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/golden_runs.json from the current simulator")

// goldenBenches are the CHAI workloads pinned per variant: tq is the
// paper's running example (CPU↔GPU task-queue collaboration, heavy
// atomics), sc (stream compaction) adds DMA-free data-parallel traffic
// with an order-dependent output image — together they exercise every
// message class on every variant. Both run one kernel whose waves are
// all resident at once, so rscd (24 kernels, 384 waves) pins waves that
// run in a slot an earlier wave used, and cedd (4 kernels, 800 DMA
// writes) pins DMA streaming.
var goldenBenches = []string{"tq", "sc", "rscd", "cedd"}

// goldenHash runs one bench × variant cell and hashes the complete
// observable output: every interconnect message (streamed through the
// trace writer into the hash) followed by a canonical stats dump.
func goldenHash(t testing.TB, bench string, opts hscsim.ProtocolOptions) string {
	t.Helper()
	h, _ := goldenRun(t, bench, opts)
	return h
}

// goldenRun is goldenHash that also returns the cell's results.
func goldenRun(t testing.TB, bench string, opts hscsim.ProtocolOptions) (string, hscsim.Results) {
	t.Helper()
	w, err := hscsim.NewBenchmark(bench, hscsim.Params{Scale: 1, CPUThreads: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := hscsim.NewSystem(hscsim.EvalConfig(opts))
	h := sha256.New()
	s.TraceTo(h) // trace bytes stream straight into the hash
	res, err := s.Run(w)
	if err != nil {
		t.Fatalf("%s/%s: %v", bench, opts.Named(), err)
	}
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats { //hsclint:deterministic — sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(h, "cycles=%d\n", res.Cycles)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, res.Stats[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil)), res
}

const goldenPath = "testdata/golden_runs.json"

func TestGoldenRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full CHAI runs; skipped in -short")
	}
	got := map[string]string{}
	for _, bench := range goldenBenches {
		for _, opts := range verify.Variants() {
			key := bench + "/" + opts.Named()
			got[key] = goldenHash(t, bench, opts)
		}
	}

	if *updateGoldens {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(got), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test -run TestGoldenRuns -update-goldens .)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cells, run produced %d — variant/bench list drifted", len(want), len(got))
	}
	for key, wh := range want {
		if gh, ok := got[key]; !ok {
			t.Errorf("%s: pinned in goldens but not produced by this run", key)
		} else if gh != wh {
			t.Errorf("%s: run hash %s != golden %s — the simulation is no longer byte-identical; "+
				"if this change is intentional it needs an engine.Version bump and -update-goldens", key, gh, wh)
		}
	}
}

// TestGoldenResultsEncodeAsJSON: the job engine's hand-written
// EncodeResult writes every golden cell's results as json.Marshal does.
func TestGoldenResultsEncodeAsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full CHAI runs; skipped in -short")
	}
	for _, bench := range goldenBenches {
		for _, opts := range verify.Variants() {
			_, res := goldenRun(t, bench, opts)
			got, err := engine.EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: EncodeResult\n got %s\nwant %s (json.Marshal)", bench, opts.Named(), got, want)
			}
		}
	}
}

// bankedStatsPath pins the complete counter snapshot of one banked,
// multi-TCC run: the unbanked golden hashes above never produce the
// dirN/llcN scope names.
const bankedStatsPath = "testdata/golden_banked_stats.txt"

// bankedStatsLines runs tq on EvalConfig with two directory banks and
// two TCCs and renders the cycle count plus every counter, sorted by
// name, one name=value line each.
func bankedStatsLines(t testing.TB) string {
	t.Helper()
	w, err := hscsim.NewBenchmark("tq", hscsim.Params{Scale: 1, CPUThreads: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hscsim.EvalConfig(hscsim.ProtocolOptions{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: hscsim.TrackOwner})
	cfg.DirBanks = 2
	cfg.GPU.NumTCCs = 2
	res, err := hscsim.NewSystem(cfg).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats { //hsclint:deterministic — sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d\n", res.Cycles)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, res.Stats[k])
	}
	return b.String()
}

func TestGoldenBankedStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full CHAI run; skipped in -short")
	}
	got := bankedStatsLines(t)
	if *updateGoldens {
		if err := os.WriteFile(bankedStatsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(bankedStatsPath)
	if err != nil {
		t.Fatalf("%v (generate with: go test -run TestGoldenBankedStats -update-goldens .)", err)
	}
	if got != string(want) {
		t.Errorf("banked counter snapshot differs from %s:\n got:\n%s\nwant:\n%s", bankedStatsPath, got, want)
	}
}
