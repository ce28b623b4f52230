package engine

import (
	"fmt"
	"strconv"
	"strings"

	"hscsim/internal/core"
)

// MaxSweepCells bounds server-side sweep expansion: a single POST
// /sweeps may not expand into more cells than this. The limit protects
// the server from a small request body describing an enormous cross
// product (benches × variants × points is multiplicative).
const MaxSweepCells = 4096

// SweepPoint is one structural point of a sweep grid: a topology
// override plus an optional per-point thread count (CPU-scaling sweeps
// grow threads with CorePairs). Label is echoed back per cell so
// clients can render tables without re-deriving the grid.
type SweepPoint struct {
	Label    string       `json:"label,omitempty"`
	Topology TopologySpec `json:"topology"`
	Threads  int          `json:"threads,omitempty"`
}

// SweepSpec describes a whole design-space sweep in one request:
// benches × protocol variants × topology points, expanded server-side
// into canonical Spec cells. The expansion order is deterministic
// (bench-major, then variant, then point), so cell indices are stable
// across processes and re-submissions.
type SweepSpec struct {
	Benches  []string       `json:"benches"`
	Variants []ProtocolSpec `json:"variants,omitempty"`
	Points   []SweepPoint   `json:"points,omitempty"`
	Scale    int            `json:"scale,omitempty"`
	Threads  int            `json:"threads,omitempty"`
	Seed     int64          `json:"seed,omitempty"`
	Config   string         `json:"config,omitempty"`
}

// Normalized fills defaults (one empty variant / one default point) so
// equivalent sweeps expand into identical cells.
func (s SweepSpec) Normalized() SweepSpec {
	if len(s.Variants) == 0 {
		s.Variants = []ProtocolSpec{{}}
	}
	if len(s.Points) == 0 {
		s.Points = []SweepPoint{{}}
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.Config == "" {
		s.Config = ConfigEval
	}
	return s
}

// Cells expands the sweep into its canonical job specs. Every cell is
// Normalized, so cell hashes are exactly the hashes the single-job API
// would assign.
func (s SweepSpec) Cells() ([]Spec, error) {
	s = s.Normalized()
	if len(s.Benches) == 0 {
		return nil, fmt.Errorf("engine: sweep has no benches")
	}
	n := len(s.Benches) * len(s.Variants) * len(s.Points)
	if n > MaxSweepCells {
		return nil, fmt.Errorf("engine: sweep expands to %d cells (max %d)", n, MaxSweepCells)
	}
	cells := make([]Spec, 0, n)
	for _, b := range s.Benches {
		for _, v := range s.Variants {
			for _, p := range s.Points {
				threads := s.Threads
				if p.Threads > 0 {
					threads = p.Threads
				}
				cells = append(cells, Spec{
					Bench:    b,
					Scale:    s.Scale,
					Threads:  threads,
					Seed:     s.Seed,
					Protocol: v,
					Topology: p.Topology,
					Config:   s.Config,
				}.Normalized())
			}
		}
	}
	return cells, nil
}

// Validate expands the sweep and validates every cell, so a bad bench
// name or impossible topology is rejected before any cell runs.
func (s SweepSpec) Validate() error {
	cells, err := s.Cells()
	if err != nil {
		return err
	}
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("engine: sweep cell %d: %w", i, err)
		}
	}
	return nil
}

// cellLabel is the label echoed on cell i of the normalized sweep: the
// point's own label, or "v<variant>p<point>" when the client gave none.
func (s SweepSpec) cellLabel(i int) string {
	pi := i % len(s.Points)
	if l := s.Points[pi].Label; l != "" {
		return l
	}
	vi := i / len(s.Points) % len(s.Variants)
	return "v" + strconv.Itoa(vi) + "p" + strconv.Itoa(pi)
}

// namedVariants are the eight protocol variants of the paper's figure
// legends; each is known by its core.Options.Named name.
var namedVariants = []core.Options{
	{},
	{EarlyDirtyResponse: true},
	{NoWBCleanVicToMem: true},
	{NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true},
	{LLCWriteBack: true},
	{LLCWriteBack: true, UseL3OnWT: true},
	{LLCWriteBack: true, UseL3OnWT: true, Tracking: core.TrackOwner},
	{LLCWriteBack: true, UseL3OnWT: true, Tracking: core.TrackOwnerSharers},
}

// NamedVariant resolves a figure-legend variant name (baseline,
// earlyResp, …, sharersTracking) for cmd/hscsim, cmd/hscsweep and the
// public API.
func NamedVariant(name string) (ProtocolSpec, error) {
	for _, o := range namedVariants {
		if o.Named() == name {
			return ProtocolFromOptions(o), nil
		}
	}
	names := make([]string, len(namedVariants))
	for i, o := range namedVariants {
		names[i] = o.Named()
	}
	return ProtocolSpec{}, fmt.Errorf("engine: unknown protocol variant %q (%s)", name, strings.Join(names, ", "))
}
