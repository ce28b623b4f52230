package system_test

import (
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/system"
)

// TestOracleTransparent: the runtime coherence oracle must observe the
// run (non-zero checks) without perturbing it — identical cycle counts
// and statistics with the oracle on and off.
func TestOracleTransparent(t *testing.T) {
	opts := core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true}
	run := func(oracle bool) (system.Results, uint64) {
		cfg := smallConfig(opts)
		cfg.Oracle = oracle
		s := system.New(cfg)
		res, err := s.Run(randomWorkload(7, 6))
		if err != nil {
			t.Fatal(err)
		}
		return res, s.OracleChecks()
	}
	plain, zero := run(false)
	checked, n := run(true)
	if zero != 0 {
		t.Fatalf("oracle off but %d checks recorded", zero)
	}
	if n == 0 {
		t.Fatal("oracle on but performed no checks")
	}
	if plain.Cycles != checked.Cycles {
		t.Fatalf("oracle perturbed timing: %d vs %d cycles", plain.Cycles, checked.Cycles)
	}
	for k, v := range plain.Stats {
		if checked.Stats[k] != v {
			t.Fatalf("oracle perturbed stat %s: %d vs %d", k, v, checked.Stats[k])
		}
	}
	t.Logf("oracle performed %d checks", n)
}

// TestOracleOnBankedDirectory: the oracle's directory cross-checks
// route through BankFor, so the sharded configuration runs under full
// oracle coverage (this used to panic).
func TestOracleOnBankedDirectory(t *testing.T) {
	for _, opts := range []core.Options{
		{},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
	} {
		opts := opts
		t.Run(opts.Named(), func(t *testing.T) {
			cfg := smallConfig(opts)
			cfg.DirBanks = 4
			cfg.Oracle = true
			s := system.New(cfg)
			if _, err := s.Run(randomWorkload(11, 6)); err != nil {
				t.Fatal(err)
			}
			if s.OracleChecks() == 0 {
				t.Fatal("banked run performed no oracle checks")
			}
		})
	}
}
