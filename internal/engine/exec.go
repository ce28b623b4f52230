package engine

import (
	"context"
	"errors"
	"fmt"

	"hscsim/internal/sim"
	"hscsim/internal/system"
)

// Execute runs one spec to completion on a fresh simulated system and
// returns the canonical result encoding; it leaves no goroutine behind.
// The engine's workers run specs the same way, each on a system it
// keeps and resets between jobs (system.Runner). The context's Done
// channel is wired into the simulator's event loop, so cancellation
// and timeouts take effect mid-run within a few thousand simulated
// events.
func Execute(ctx context.Context, sp Spec) ([]byte, error) {
	var r system.Runner
	defer r.Close()
	return execute(ctx, &r, sp)
}

// execute runs sp on r's system: the engine's executor, each worker
// passing its own runner.
func execute(ctx context.Context, r *system.Runner, sp Spec) ([]byte, error) {
	sp = sp.Normalized()
	cfg, w, err := buildRun(sp)
	if err != nil {
		return nil, err
	}
	cfg.Interrupt = ctx.Done()
	res, err := r.Run(cfg, w)
	if err != nil {
		if errors.Is(err, sim.ErrInterrupted) && ctx.Err() != nil {
			// Surface the context's verdict (Canceled vs
			// DeadlineExceeded) so the engine can classify the job.
			return nil, fmt.Errorf("engine: %s interrupted: %w", sp, ctx.Err())
		}
		return nil, err
	}
	return EncodeResult(res)
}

// Build assembles the system and the workload sp describes, ready to
// Run. It is how cmd/hscsim turns a spec into a simulation, with the
// config and workload Execute runs, so a spec runs the same through
// either and System.Run returns the verdict Execute's runner does.
// Build neither normalizes nor validates sp.
func Build(sp Spec) (*system.System, system.Workload, error) {
	cfg, w, err := buildRun(sp)
	if err != nil {
		return nil, system.Workload{}, err
	}
	return system.New(cfg), w, nil
}

// buildRun returns the config and the workload sp describes.
func buildRun(sp Spec) (system.Config, system.Workload, error) {
	cfg, err := buildConfig(sp)
	if err != nil {
		return system.Config{}, system.Workload{}, err
	}
	w, err := buildWorkload(sp)
	if err != nil {
		return system.Config{}, system.Workload{}, err
	}
	return cfg, w, nil
}
