package system

// RunKept runs w as a Runner does: idle workload coroutines stay
// parked for the next run.
func (s *System) RunKept(w Workload) (Results, error) { return s.run(w) }

// Stop stops every workload coroutine.
func (s *System) Stop() { s.stop() }
