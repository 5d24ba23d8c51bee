package dynamic

import (
	"hotpotato/internal/persist"
	"hotpotato/internal/stats"
)

// latReservoirCap bounds the retained latency sample. 4096 samples give
// sub-percent quantile error at p99 while keeping snapshots O(1): before
// this bound the engine appended every post-warmup delivery latency
// forever, so a long -serve process grew without limit and every
// snapshot shipped the full history (the v1→v2 persist format bump).
// Snapshot validation refuses a larger reservoir.
const latReservoirCap = persist.MaxLatSamples

// latSeedMix decorrelates the reservoir's RNG stream from the engine's
// trajectory stream when both derive from Config.Seed.
const latSeedMix = 0x5ca1ab1e0ddba11

// latReservoir is a bounded uniform sample (Algorithm R) over the
// post-warmup delivery latencies, plus the exact count and sum so Mean
// stays exact no matter how many samples were folded in. It draws from
// its own SplitMix64 stream — never the engine RNG — so sampling
// decisions cannot perturb routing, and the stream state persists so
// restored engines keep sampling identically.
type latReservoir struct {
	count   int
	sum     float64
	samples []float64
	rng     sm64
}

func newLatReservoir(seed int64) latReservoir {
	return latReservoir{
		samples: make([]float64, 0, latReservoirCap),
		rng:     *newSM64(seed ^ latSeedMix),
	}
}

// add folds one latency observation in. Once the reservoir is full,
// observation n (1-based) is kept with probability cap/n, replacing a
// uniformly chosen incumbent — Algorithm R. Exactly one RNG draw per
// overflowing observation, zero while filling.
func (r *latReservoir) add(x float64) {
	r.count++
	r.sum += x
	if len(r.samples) < latReservoirCap {
		r.samples = append(r.samples, x)
		return
	}
	if j := r.rng.Uint64() % uint64(r.count); j < latReservoirCap {
		r.samples[j] = x
	}
}

// summary computes quantiles over the reservoir but reports the exact
// observation count and mean.
func (r *latReservoir) summary() stats.Summary {
	s := summarizeLatencies(r.samples)
	if r.count > 0 {
		s.N = r.count
		s.Mean = r.sum / float64(r.count)
	}
	return s
}

// restore rebuilds the reservoir from persisted state. The backing is
// preallocated at full capacity so post-restore sampling never grows it.
func restoreLatReservoir(count int, sum float64, samples []float64, rngState uint64) latReservoir {
	r := latReservoir{
		count:   count,
		sum:     sum,
		samples: make([]float64, 0, latReservoirCap),
		rng:     sm64{state: rngState},
	}
	r.samples = append(r.samples, samples...)
	return r
}
