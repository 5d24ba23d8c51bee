package dynamic

import (
	"fmt"
	"testing"

	"hotpotato/internal/faults"
	"hotpotato/internal/topo"
)

// BenchmarkNewEngine measures engine construction — dominated by the
// cone index build — on the butterfly sizes the service benchmarks use
// (5: svc-chatty, 7: svc-bulk) and one size larger.
func BenchmarkNewEngine(b *testing.B) {
	for _, k := range []int{5, 7, 8} {
		g, err := topo.Butterfly(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("butterfly(%d)", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewEngine(g, Config{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBulkOp measures one svc-bulk operation at the engine: a
// 256-packet random batch, then 32 steps, on a flapping butterfly with
// retry — the path-draw-heavy shape.
func BenchmarkBulkOp(b *testing.B) {
	for _, k := range []int{7, 8} {
		g, err := topo.Butterfly(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("butterfly(%d)", k), func(b *testing.B) {
			e, err := NewEngine(g, Config{
				Seed:   1,
				Retry:  RetryPolicy{MaxAttempts: 8},
				Faults: faults.Flap{Period: 50, Down: 5, Rate: 0.2}.Model(g, 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.SubmitRandom("bulk", 256); err != nil {
					b.Fatal(err)
				}
				for s := 0; s < 32; s++ {
					if err := e.Step(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
