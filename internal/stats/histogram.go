package stats

import (
	"fmt"
	"math/bits"
)

// Histogram accumulates a distribution in power-of-two buckets —
// enough resolution for latency distributions without per-sample
// storage. The zero value is an empty histogram.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	b := bits.Len64(v) // bucket b holds [2^(b-1), 2^b)
	h.buckets[b]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest observed sample (0 with no samples).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest observed sample.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an upper bound on the p-th percentile (p in
// [0,100]): the top of the bucket containing it.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := uint64(p / 100 * float64(h.count))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for b := 0; b < len(h.buckets); b++ {
		seen += h.buckets[b]
		if seen >= target {
			if b == 0 {
				return 0
			}
			return 1<<uint(b) - 1
		}
	}
	return h.max
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%.1f min=%d p50≤%d p90≤%d p99≤%d max=%d",
		h.count, h.Mean(), h.min,
		h.Percentile(50), h.Percentile(90), h.Percentile(99), h.max)
}
