package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// TestBootstrapQuantileCIDeterminism: identical inputs and seed must
// give byte-identical intervals — campaign resume depends on it.
func TestBootstrapQuantileCIDeterminism(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9}
	a := BootstrapQuantileCI(xs, 0.5, 500, 42, 0.95)
	b := BootstrapQuantileCI(xs, 0.5, 500, 42, 0.95)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different intervals: %+v vs %+v", a, b)
	}
	c := BootstrapQuantileCI(xs, 0.5, 500, 43, 0.95)
	if a.Lo == c.Lo && a.Hi == c.Hi {
		t.Fatalf("different seeds gave identical interval endpoints %+v", a)
	}
	// The input slice must not be mutated (the engine reuses trial slices).
	if !reflect.DeepEqual(xs, []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9}) {
		t.Fatalf("input mutated: %v", xs)
	}
}

// sortedBootstrapQuantileCI is the resample-and-sort formulation the
// counting bootstrap replaced, kept as its reference.
func sortedBootstrapQuantileCI(xs []float64, q float64, iters int, seed uint64, conf float64) QuantileCI {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	est := Quantile(sorted, q)
	if len(xs) < 2 {
		return QuantileCI{Q: q, Estimate: est, Lo: est, Hi: est}
	}
	state := seed
	n := len(sorted)
	resample := make([]float64, n)
	estimates := make([]float64, iters)
	for b := 0; b < iters; b++ {
		for i := 0; i < n; i++ {
			resample[i] = sorted[splitmix64(&state)%uint64(n)]
		}
		sort.Float64s(resample)
		estimates[b] = Quantile(resample, q)
	}
	sort.Float64s(estimates)
	alpha := (1 - conf) / 2
	return QuantileCI{Q: q, Estimate: est, Lo: Quantile(estimates, alpha), Hi: Quantile(estimates, 1-alpha)}
}

// TestBootstrapQuantileCIMatchesSortedResamples pins the counting
// bootstrap bit for bit to sorting every resample, over 300 seeds,
// continuous and heavily tied samples, and quantiles including both
// ends.
func TestBootstrapQuantileCIMatchesSortedResamples(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		state := seed * 0x9e37
		n := 2 + int(splitmix64(&state)%60)
		xs := make([]float64, n)
		for i := range xs {
			r := splitmix64(&state)
			if seed%2 == 0 {
				xs[i] = float64(r%5) * 1.5 // ties
			} else {
				xs[i] = float64(r>>11) / (1 << 53) * 100
			}
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			got := BootstrapQuantileCI(xs, q, 200, seed, 0.95)
			want := sortedBootstrapQuantileCI(xs, q, 200, seed, 0.95)
			if math.Float64bits(got.Lo) != math.Float64bits(want.Lo) ||
				math.Float64bits(got.Hi) != math.Float64bits(want.Hi) ||
				math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) {
				t.Fatalf("seed %d n %d q %g: %+v, want %+v", seed, n, q, got, want)
			}
		}
	}
}

func TestBootstrapQuantileCIBasicShape(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	ci := BootstrapQuantileCI(xs, 0.5, 1000, 7, 0.95)
	if ci.Lo > ci.Estimate || ci.Estimate > ci.Hi {
		t.Fatalf("estimate outside its own interval: %+v", ci)
	}
	if ci.Lo < 10 || ci.Hi > 100 {
		t.Fatalf("interval escapes sample range: %+v", ci)
	}
	// Degenerate single-point sample.
	one := BootstrapQuantileCI([]float64{7}, 0.99, 100, 1, 0.95)
	if one.Lo != 7 || one.Hi != 7 || one.Estimate != 7 {
		t.Fatalf("single sample must degenerate to a point: %+v", one)
	}
	// Constant sample: all resamples identical.
	flat := BootstrapQuantileCI([]float64{4, 4, 4, 4, 4}, 0.5, 200, 1, 0.95)
	if flat.Lo != 4 || flat.Hi != 4 {
		t.Fatalf("constant sample must give zero-width interval: %+v", flat)
	}
}

// TestBootstrapQuantileCICoverage draws many synthetic samples from a
// uniform distribution with a known median and checks the empirical
// coverage of the 95% interval. Percentile-bootstrap coverage on n=40
// is approximate, so the acceptance band is deliberately wide — the
// test catches gross mis-implementation (coverage near 0 or blown-out
// intervals covering always), not second-order bootstrap error.
func TestBootstrapQuantileCICoverage(t *testing.T) {
	const (
		trials = 300
		n      = 40
	)
	trueMedian := 0.5 // U(0,1)
	state := uint64(12345)
	covered := 0
	for tr := 0; tr < trials; tr++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(splitmix64(&state)) / float64(math.MaxUint64)
		}
		ci := BootstrapQuantileCI(xs, 0.5, 400, splitmix64(&state), 0.95)
		if ci.Lo <= trueMedian && trueMedian <= ci.Hi {
			covered++
		}
	}
	cov := float64(covered) / trials
	if cov < 0.80 || cov > 1.0 {
		t.Fatalf("95%% interval covered the true median %.1f%% of the time", 100*cov)
	}
	t.Logf("empirical coverage: %.1f%% (%d/%d)", 100*cov, covered, trials)
}

func TestBootstrapQuantileCIPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { BootstrapQuantileCI(nil, 0.5, 10, 1, 0.95) },
		"bad q":    func() { BootstrapQuantileCI([]float64{1, 2}, 1.5, 10, 1, 0.95) },
		"bad conf": func() { BootstrapQuantileCI([]float64{1, 2}, 0.5, 10, 1, 1.0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

// TestFitPolylogExact: data generated exactly from a·(C+L)·ln^k(LN)+b
// must be recovered with the right exponent and near-zero residuals,
// for every exponent in the search range.
func TestFitPolylogExact(t *testing.T) {
	base := []float64{5, 8, 12, 20, 33, 50, 81, 120}
	lnln := []float64{2.1, 2.7, 3.2, 3.9, 4.4, 5.0, 5.6, 6.3}
	for k := 0; k <= 4; k++ {
		const a, b = 17.5, -42.0
		ys := make([]float64, len(base))
		for i := range ys {
			ys[i] = a*base[i]*math.Pow(lnln[i], float64(k)) + b
		}
		fit := FitPolylog(base, lnln, ys, 9)
		if fit.Exponent != k {
			t.Fatalf("k=%d: recovered exponent %d (fit %+v)", k, fit.Exponent, fit)
		}
		if math.Abs(fit.Slope-a) > 1e-6 || math.Abs(fit.Intercept-b) > 1e-4 {
			t.Fatalf("k=%d: recovered a=%g b=%g", k, fit.Slope, fit.Intercept)
		}
		if fit.R2 < 1-1e-9 {
			t.Fatalf("k=%d: R²=%v on exact data", k, fit.R2)
		}
		if len(fit.Residuals) != len(ys) {
			t.Fatalf("k=%d: %d residuals for %d points", k, len(fit.Residuals), len(ys))
		}
		if fit.MaxAbsResidual > 1e-6*math.Abs(ys[len(ys)-1]) {
			t.Fatalf("k=%d: residuals not near zero on exact data: max %g", k, fit.MaxAbsResidual)
		}
		if fit.RMSE > fit.MaxAbsResidual {
			t.Fatalf("k=%d: RMSE %g above max residual %g", k, fit.RMSE, fit.MaxAbsResidual)
		}
	}
}

// TestFitPolylogNoisy: with noise added, the fit must record honest
// residuals (nonzero RMSE, R² < 1) rather than claiming a perfect fit.
func TestFitPolylogNoisy(t *testing.T) {
	base := []float64{5, 8, 12, 20, 33, 50, 81, 120}
	lnln := []float64{2.1, 2.7, 3.2, 3.9, 4.4, 5.0, 5.6, 6.3}
	noise := []float64{30, -25, 18, -40, 22, -15, 35, -28}
	ys := make([]float64, len(base))
	for i := range ys {
		ys[i] = 10*base[i]*lnln[i] + noise[i]
	}
	fit := FitPolylog(base, lnln, ys, 9)
	if fit.RMSE == 0 || fit.R2 >= 1 {
		t.Fatalf("noisy data reported as exact: %+v", fit)
	}
	if fit.NormalizedRMSE <= 0 {
		t.Fatalf("normalized RMSE not recorded: %+v", fit)
	}
	var ss float64
	for _, r := range fit.Residuals {
		ss += r * r
	}
	if got := math.Sqrt(ss / float64(len(ys))); math.Abs(got-fit.RMSE) > 1e-9 {
		t.Fatalf("RMSE %g inconsistent with recorded residuals (%g)", fit.RMSE, got)
	}
}

func TestFitPolylogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FitPolylog([]float64{1}, []float64{1, 2}, []float64{1, 2}, 3)
}
