package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHostScale(t *testing.T) {
	nominal := refSample{wall: refNominal, cpu: workers * refNominal}
	if s := hostScale(nominal, nominal); s != unscaled {
		t.Errorf("reference speed: %+v, want %+v", s, unscaled)
	}
	// A running thread at half speed takes twice the wall and CPU time,
	// and a time taken on it is halved.
	slow := refSample{wall: 2 * nominal.wall, cpu: 2 * nominal.cpu}
	if s := hostScale(slow, slow); s != (scale{0.5, 0.5}) {
		t.Errorf("half speed: %+v, want {0.5 0.5}", s)
	}
	// Steal stretches the wall time alone.
	stolen := refSample{wall: 2 * nominal.wall, cpu: nominal.cpu}
	if s := hostScale(nominal, stolen); s != (scale{2.0 / 3, 1}) {
		t.Errorf("steal: %+v, want {0.667 1}", s)
	}
}

func TestServeHostRefAnswersEveryLine(t *testing.T) {
	var out bytes.Buffer
	if err := serveHostRef(strings.NewReader("run\nrun\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d answers to 2 requests: %q", len(lines), out.String())
	}
	for _, l := range lines {
		for _, f := range strings.Fields(l) {
			if ns, err := strconv.ParseInt(f, 10, 64); err != nil || ns <= 0 || time.Duration(ns) > time.Minute {
				t.Errorf("answer %q is not a kernel wall and CPU time", l)
			}
		}
		if len(strings.Fields(l)) != 2 {
			t.Errorf("answer %q is not a kernel wall and CPU time", l)
		}
	}
}
