package stats

import (
	"fmt"
	"math"
	"sort"
)

// splitmix64 advances the SplitMix64 state and returns the mixed
// output. The bootstrap uses it instead of math/rand so resampling is
// a pure function of the seed — campaign summaries containing bootstrap
// intervals must be byte-identical across runs, Go versions and
// machines.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// QuantileCI is a bootstrap confidence interval for one quantile.
type QuantileCI struct {
	Q        float64 `json:"q"`
	Estimate float64 `json:"estimate"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
}

// BootstrapQuantileCI estimates the conf-level percentile-bootstrap
// confidence interval of the q-quantile of xs, using iters resamples
// drawn deterministically from seed. The point estimate is the sample
// quantile itself. Returns a degenerate interval [x, x] for samples of
// size < 2. Panics on empty xs, q outside [0,1] or conf outside (0,1).
func BootstrapQuantileCI(xs []float64, q float64, iters int, seed uint64, conf float64) QuantileCI {
	if len(xs) == 0 {
		panic("stats: BootstrapQuantileCI of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: BootstrapQuantileCI quantile %g outside [0,1]", q))
	}
	if conf <= 0 || conf >= 1 {
		panic(fmt.Sprintf("stats: BootstrapQuantileCI confidence %g outside (0,1)", conf))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	est := Quantile(sorted, q)
	if len(xs) < 2 {
		return QuantileCI{Q: q, Estimate: est, Lo: est, Hi: est}
	}
	if iters < 1 {
		iters = 1000
	}
	// A resample only matters through two of its order statistics. As
	// sorted is ascending, the resample sorted by value is the drawn
	// indices sorted, so counting the draws per index (O(n)) finds both
	// without sorting the resample (O(n log n)).
	state := seed
	n := len(sorted)
	lo, hi, frac := quantileRanks(n, q)
	hits := make([]int32, n)
	estimates := make([]float64, iters)
	for b := 0; b < iters; b++ {
		clear(hits)
		for i := 0; i < n; i++ {
			// Rejection-free bounded draw: the modulo bias over a 64-bit
			// stream is far below any quantile resolution at realistic n.
			hits[splitmix64(&state)%uint64(n)]++
		}
		xlo, xhi := orderStats(sorted, hits, lo, hi)
		estimates[b] = interpolate(xlo, xhi, frac)
	}
	sort.Float64s(estimates)
	alpha := (1 - conf) / 2
	return QuantileCI{
		Q:        q,
		Estimate: est,
		Lo:       Quantile(estimates, alpha),
		Hi:       Quantile(estimates, 1-alpha),
	}
}

// orderStats returns the lo-th and hi-th smallest values (0-based,
// lo <= hi) of the multiset holding hits[j] copies of sorted[j].
func orderStats(sorted []float64, hits []int32, lo, hi int) (xlo, xhi float64) {
	seen, j := 0, 0
	for ; ; j++ {
		seen += int(hits[j])
		if seen > lo {
			break
		}
	}
	xlo = sorted[j]
	for seen <= hi {
		j++
		seen += int(hits[j])
	}
	return xlo, sorted[j]
}

// PolylogFit is the least-squares fit of measured delivery times
// against the paper's shape T ≈ a · (C+L) · ln^k(LN) + b, over the
// polylog exponent k that maximizes R². The residuals (y - fitted) are
// recorded per point so a regression gate — or a reader of the
// committed campaign document — can see where the shape breaks, not
// just that it does.
type PolylogFit struct {
	// Exponent is the selected k in (C+L)·ln^k(LN).
	Exponent  int     `json:"exponent"`
	Slope     float64 `json:"slope"`
	Intercept float64 `json:"intercept"`
	R2        float64 `json:"r2"`
	// Residuals[i] = ys[i] - (Slope·xs[i] + Intercept) in the selected
	// exponent's regressor, in input order.
	Residuals []float64 `json:"residuals"`
	// RMSE and MaxAbsResidual summarize the residuals; NormalizedRMSE is
	// RMSE over the mean of ys (scale-free, comparable across grids).
	RMSE           float64 `json:"rmse"`
	MaxAbsResidual float64 `json:"max_abs_residual"`
	NormalizedRMSE float64 `json:"normalized_rmse"`
}

// FitPolylog fits ys (measured steps) against base[i]·lnln[i]^k for
// k = 0..maxExp, where base[i] is the cell's C+L and lnln[i] its
// ln(L·N), and returns the best fit by R². It panics on length
// mismatches and needs at least two points.
func FitPolylog(base, lnln, ys []float64, maxExp int) PolylogFit {
	if len(base) != len(ys) || len(lnln) != len(ys) {
		panic("stats: FitPolylog length mismatch")
	}
	if len(ys) < 2 {
		panic("stats: FitPolylog needs at least two points")
	}
	if maxExp < 0 {
		maxExp = 0
	}
	best := PolylogFit{R2: -1}
	xs := make([]float64, len(ys))
	for k := 0; k <= maxExp; k++ {
		for i := range xs {
			xs[i] = base[i] * math.Pow(lnln[i], float64(k))
		}
		lf := FitLinear(xs, ys)
		if lf.R2 <= best.R2 {
			continue
		}
		fit := PolylogFit{Exponent: k, Slope: lf.Slope, Intercept: lf.Intercept, R2: lf.R2}
		fit.Residuals = make([]float64, len(ys))
		var ss, sy float64
		for i := range ys {
			r := ys[i] - (lf.Slope*xs[i] + lf.Intercept)
			fit.Residuals[i] = r
			ss += r * r
			sy += ys[i]
			if a := math.Abs(r); a > fit.MaxAbsResidual {
				fit.MaxAbsResidual = a
			}
		}
		fit.RMSE = math.Sqrt(ss / float64(len(ys)))
		if mean := sy / float64(len(ys)); mean != 0 {
			fit.NormalizedRMSE = fit.RMSE / math.Abs(mean)
		}
		best = fit
	}
	return best
}

// String renders the fit on one line.
func (f PolylogFit) String() string {
	return fmt.Sprintf("steps = %.3f·(C+L)·ln^%d(LN) + %.3f (R²=%.3f, nRMSE=%.3f)",
		f.Slope, f.Exponent, f.Intercept, f.R2, f.NormalizedRMSE)
}
