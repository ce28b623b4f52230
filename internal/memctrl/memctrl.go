// Package memctrl models the main-memory controller behind the
// system-level directory.
//
// The directory is the only agent that talks to memory, over an ordered
// interface (§III-C), so the model is a single FIFO channel with a fixed
// access latency and a bandwidth limit. A read completes as a
// dispatch-form event on the engine; writes are posted (non-blocking for
// the requester) but still occupy channel bandwidth. Read/write counts
// feed Fig. 5.
package memctrl

import (
	"hscsim/internal/cachearray"
	"hscsim/internal/sim"
)

// Config sets memory timing.
type Config struct {
	// Latency is the access latency in ticks once the request is issued
	// to the channel.
	Latency sim.Tick
	// CyclesPerAccess limits bandwidth: successive accesses occupy the
	// channel for this many ticks each.
	CyclesPerAccess sim.Tick
	// Banks, when > 1, adds per-bank occupancy: a bank stays busy for
	// BankCycles after each access, so same-bank bursts serialize even
	// when channel bandwidth is available. Lines interleave across
	// banks by address.
	Banks int
	// BankCycles is the per-bank busy time (row cycle); defaults to 40
	// when Banks > 1.
	BankCycles sim.Tick
}

// DefaultConfig approximates DDR4 behind a 3.5 GHz core: ~160-cycle
// access latency and one 64-byte access every 4 cycles of channel time.
func DefaultConfig() Config {
	return Config{Latency: 160, CyclesPerAccess: 4}
}

// Controller is the DRAM model.
type Controller struct {
	engine *sim.Engine
	cfg    Config

	nextFree sim.Tick
	bankFree []sim.Tick

	Stats Stats
}

// Stats are the memory controller's counters.
type Stats struct {
	Reads           uint64 `stat:"reads"`
	Writes          uint64 `stat:"writes"`
	BankStallCycles uint64 `stat:"bank_stall_cycles"`
}

// New creates a memory controller.
func New(engine *sim.Engine, cfg Config) *Controller {
	if cfg.CyclesPerAccess == 0 {
		cfg.CyclesPerAccess = 1
	}
	if cfg.Banks > 1 && cfg.BankCycles == 0 {
		cfg.BankCycles = 40
	}
	ctl := &Controller{engine: engine, cfg: cfg}
	if cfg.Banks > 1 {
		ctl.bankFree = make([]sim.Tick, cfg.Banks)
	}
	ctl.Reset()
	return ctl
}

// Reset returns the controller to its just-constructed state: an idle
// channel and banks, and zero counters.
func (c *Controller) Reset() {
	c.nextFree = 0
	clear(c.bankFree)
	c.Stats = Stats{}
}

// occupy reserves the next channel slot (and bank, when banked) and
// returns the tick at which the access completes. A busy bank delays
// only its own access, not the channel pipeline (the controller
// reorders around busy banks).
func (c *Controller) occupy(addr cachearray.LineAddr) sim.Tick {
	slot := c.engine.Now()
	if c.nextFree > slot {
		slot = c.nextFree
	}
	c.nextFree = slot + c.cfg.CyclesPerAccess
	begin := slot
	if c.bankFree != nil {
		b := int(uint64(addr) % uint64(len(c.bankFree)))
		if c.bankFree[b] > begin {
			c.Stats.BankStallCycles += uint64(c.bankFree[b] - begin)
			begin = c.bankFree[b]
		}
		c.bankFree[b] = begin + c.cfg.BankCycles
	}
	return begin + c.cfg.Latency
}

// Read fetches a line. When the data is available the engine calls
// h.OnEvent(kind, uint64(addr), obj), so a read schedules no closure.
func (c *Controller) Read(addr cachearray.LineAddr, h sim.Handler, kind uint8, obj any) {
	c.Stats.Reads++
	c.engine.PostAt(c.occupy(addr), h, kind, uint64(addr), obj)
}

// Write stores a line. The write is posted: it consumes a channel slot
// but nothing waits for it.
func (c *Controller) Write(addr cachearray.LineAddr) {
	c.Stats.Writes++
	c.occupy(addr)
}
