package engine

import (
	"context"
	"errors"
	"fmt"

	"hscsim/internal/sim"
	"hscsim/internal/system"
)

// Execute runs one spec to completion on a fresh simulated system and
// returns the canonical result encoding. It is the engine's default
// executor. The context's Done channel is wired into the simulator's
// event loop, so cancellation and timeouts take effect mid-run within
// a few thousand simulated events.
func Execute(ctx context.Context, sp Spec) ([]byte, error) {
	sp = sp.Normalized()
	s, w, err := Build(sp, ctx.Done())
	if err != nil {
		return nil, err
	}
	res, err := s.Run(w)
	if err != nil {
		if errors.Is(err, sim.ErrInterrupted) && ctx.Err() != nil {
			// Surface the context's verdict (Canceled vs
			// DeadlineExceeded) so the engine can classify the job.
			return nil, fmt.Errorf("engine: %s interrupted: %w", sp, ctx.Err())
		}
		return nil, err
	}
	if err := s.CheckCoherence(); err != nil {
		return nil, fmt.Errorf("engine: %s: %w", sp, err)
	}
	return EncodeResult(res)
}

// Build assembles the system and the workload sp describes, ready to
// Run. It is how Execute and cmd/hscsim turn a spec into a simulation,
// so a spec runs the same through either. interrupt, when non-nil,
// cancels the run once it closes (system.Config.Interrupt). Build
// neither normalizes nor validates sp.
func Build(sp Spec, interrupt <-chan struct{}) (*system.System, system.Workload, error) {
	cfg, err := buildConfig(sp)
	if err != nil {
		return nil, system.Workload{}, err
	}
	w, err := buildWorkload(sp)
	if err != nil {
		return nil, system.Workload{}, err
	}
	cfg.Interrupt = interrupt
	return system.New(cfg), w, nil
}
