package bench

import (
	"runtime"
	"testing"
	"time"

	"hotpotato/internal/baselines"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// TestParallelStepScaling measures ns/step of the sharded parallel step
// on the sparse butterfly(12) workload at 1/2/4/8 workers and asserts
// real speedup at 4 workers. It needs actual cores, so it first raises
// GOMAXPROCS to NumCPU (a low ambient GOMAXPROCS — e.g. from a
// container limit or the test runner — must not silently turn the gate
// into a skip) and only skips when the hardware truly has fewer than 4
// CPUs, where workers time-slice and no speedup is possible (the
// recorded BENCH_layers.json rows still document that honestly). Also
// skipped under -short.
func TestParallelStepScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement is slow; skipped under -short")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("NumCPU = %d < 4: hardware cannot show parallel speedup", n)
	} else if runtime.GOMAXPROCS(0) < n {
		old := runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(old)
		t.Logf("raised GOMAXPROCS %d -> %d for the scaling gate", old, n)
	}

	g, err := topo.Butterfly(12)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.FullThroughput(g, rngFor("scaling-sparse", 12))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(p, &staggeredGreedy{Greedy: baselines.NewGreedy(), rate: 16}, 1)
	defer e.Close()

	nsPerStep := map[int]float64{}
	for _, w := range []int{1, 2, 4, 8} {
		e.SetParallelism(w, 0)
		// Warm, then measure the best of two runs to damp scheduler
		// noise.
		e.Reset(1)
		if _, done := e.Run(1 << 22); !done {
			t.Fatalf("workers=%d: warmup did not complete", w)
		}
		best := 0.0
		for rep := 0; rep < 2; rep++ {
			e.Reset(1)
			start := time.Now()
			steps, done := e.Run(1 << 22)
			wall := time.Since(start)
			if !done {
				t.Fatalf("workers=%d: run did not complete", w)
			}
			ns := float64(wall.Nanoseconds()) / float64(steps)
			if best == 0 || ns < best {
				best = ns
			}
		}
		nsPerStep[w] = best
		t.Logf("workers=%d: %.0f ns/step", w, best)
	}

	if speedup := nsPerStep[1] / nsPerStep[4]; speedup < 1.5 {
		t.Errorf("4-worker speedup %.2fx on sparse butterfly(12), want >= 1.5x (1w=%.0f ns/step, 4w=%.0f ns/step)",
			speedup, nsPerStep[1], nsPerStep[4])
	}
}

// TestParallelEfficiencyRecorded runs the recorded engine layer (the
// exact code path behind -bench and its workers sweep)
// and asserts the workers=4 row carries a populated parallel_efficiency
// of at least 0.5 — i.e. ≥2x steady speedup over workers=1. Like the
// scaling gate above, it raises GOMAXPROCS to NumCPU first and skips
// only when the hardware truly has fewer than 4 CPUs.
func TestParallelEfficiencyRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("recorded sweep is slow; skipped under -short")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("NumCPU = %d < 4: hardware cannot show parallel efficiency", n)
	} else if runtime.GOMAXPROCS(0) < n {
		old := runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(old)
		t.Logf("raised GOMAXPROCS %d -> %d for the efficiency gate", old, n)
	}

	b := newLayerBench(1)
	if err := recordEngine(b); err != nil {
		t.Fatal(err)
	}
	annotateParallelEfficiency(b)
	found := false
	for _, r := range b.Rows {
		if r.Workers != 4 {
			continue
		}
		found = true
		if r.SpeedupVs1 <= 0 || r.ParallelEfficiency <= 0 {
			t.Fatalf("workers=4 row missing speedup annotation: %+v", r)
		}
		t.Logf("workers=4: %.2fx vs workers=1, efficiency %.2f", r.SpeedupVs1, r.ParallelEfficiency)
		if r.ParallelEfficiency < 0.5 {
			t.Errorf("parallel_efficiency %.2f at workers=4, want >= 0.5 (speedup %.2fx)",
				r.ParallelEfficiency, r.SpeedupVs1)
		}
	}
	if !found {
		t.Errorf("sweep recorded no workers=4 row (gomaxprocs=%d, skipped %v)", b.GOMAXPROCS, b.SkippedWorkers)
	}
}
