package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"hscsim/internal/engine"
)

// TestRunsHeteroSyncBench: hscsim runs every benchmark the job engine
// runs, HeteroSync included, not only the CHAI suite.
func TestRunsHeteroSyncBench(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "hs_mutex"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "benchmark        : hs_mutex") {
		t.Errorf("output does not name hs_mutex:\n%s", stdout.String())
	}
}

// TestRejectsScaleAboveLimit: the spec is validated before anything is
// built, so a scale past engine.MaxScale exits 2 without allocating the
// workload.
func TestRejectsScaleAboveLimit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	scale := strconv.Itoa(engine.MaxScale + 1)
	if code := run([]string{"-bench", "trns", "-scale", scale}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if want := "scale=" + scale + " is above the limit"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q lacks %q", stderr.String(), want)
	}
}
