package main

import (
	"fmt"
	"math"
	"sort"

	"hotpotato/internal/stats"
)

// sample is a set of timing observations with the quantile helpers the
// report needs. Values are kept raw and sorted lazily.
type sample struct {
	xs     []float64
	sorted bool
}

func (s *sample) add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *sample) n() int { return len(s.xs) }

func (s *sample) sum() float64 {
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t
}

func (s *sample) mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.xs))
}

// quantile returns the q-quantile (0 <= q <= 1) by stats.Quantile, or
// 0 for an empty sample.
func (s *sample) quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return stats.Quantile(s.xs, q)
}

func (s *sample) median() float64 { return s.quantile(0.5) }

// percentileLadder is the set of percentiles the report may stamp as
// "highest resolved".
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// beyond returns how many of n samples lie strictly above percentile p
// (p in percent) under the nearest-rank reading: n − ceil(n·p/100).
func beyond(n int, p float64) int {
	k := int(math.Ceil(float64(n) * p / 100))
	if k > n {
		k = n
	}
	return n - k
}

// highestResolved returns the highest ladder percentile with at least
// minBeyond samples beyond it, and false when even the median lacks
// them.
func highestResolved(n, minBeyond int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// stamp describes a sample for the report: its size and the highest
// percentile with at least ten samples beyond it.
func (s *sample) stamp() string {
	p, ok := highestResolved(s.n(), 10)
	if !ok {
		return fmt.Sprintf("n=%d, no percentile has 10 samples beyond it", s.n())
	}
	return fmt.Sprintf("n=%d, highest resolved p%g=%.4g", s.n(), p, s.quantile(p/100))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
