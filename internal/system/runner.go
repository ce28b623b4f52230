package system

// Runner runs workloads on one kept system. Each Run resets the kept
// system when the next config has its shape (sameShape), and builds a
// new one when the shape differs, so a sequence of jobs on one
// geometry builds one system. A reset system produces the bytes a new
// one does (DESIGN.md, "Job engine & result cache"). A Runner is not
// safe for concurrent use; the job engine gives each worker its own.
// The zero value is ready to use.
type Runner struct {
	kept *System // nil when no system is kept
}

// Run runs w to completion on a system in the state New(cfg) builds and
// returns the verdict System.Run returns. The runner keeps the system
// for its next Run only when the run succeeds and cfg sets no Oracle,
// Mutate, Recorder or Observer; after a failed, interrupted or
// panicking run it stops the system's coroutines and drops it.
func (r *Runner) Run(cfg Config, w Workload) (Results, error) {
	s, keep := r.kept, false
	r.kept = nil
	defer func() {
		switch {
		case keep:
			r.kept = s
		case s != nil:
			s.stop()
		}
	}()
	if s != nil && !sameShape(s.Cfg, cfg) {
		s.stop()
		s = nil
	}
	if s == nil {
		s = New(cfg)
	} else {
		s.reset(cfg)
	}
	res, err := s.run(w)
	keep = err == nil && keepable(cfg)
	return res, err
}

// Close stops the kept system's coroutines and drops it. The runner
// stays usable.
func (r *Runner) Close() {
	if r.kept != nil {
		r.kept.stop()
		r.kept = nil
	}
}

// keepable reports whether a system built for cfg may serve a later
// job: it attaches no observer (Oracle, Observer), fault injector
// (Mutate) or transition recorder, whose state would outlive the run.
func keepable(cfg Config) bool {
	return !cfg.Oracle && cfg.Mutate == nil && cfg.Protocol.Recorder == nil && cfg.CPU.Observer == nil
}
