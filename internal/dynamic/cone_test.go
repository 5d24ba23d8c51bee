package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/paths"
	"hotpotato/internal/topo"
)

// scrambledDAG builds a random leveled network whose node IDs are not
// level-major (nodes are added in shuffled order), with parallel edges,
// isolated nodes and nodes lacking Up or Down edges — the shapes the
// level-major position space and the dense/sparse row choice must
// survive.
func scrambledDAG(seed int64, depth, width int, p float64) *graph.Leveled {
	rng := rand.New(rand.NewSource(seed))
	var levels []int
	for l := 0; l <= depth; l++ {
		for r := 0; r < 1+rng.Intn(width); r++ {
			levels = append(levels, l)
		}
	}
	rng.Shuffle(len(levels), func(i, j int) { levels[i], levels[j] = levels[j], levels[i] })
	b := graph.NewBuilder("scrambled")
	byLevel := make([][]graph.NodeID, depth+1)
	for _, l := range levels {
		byLevel[l] = append(byLevel[l], b.AddNode(l, ""))
	}
	for l := 0; l < depth; l++ {
		for _, u := range byLevel[l] {
			for _, w := range byLevel[l+1] {
				for rng.Float64() < p {
					b.AddEdge(u, w) // sometimes twice: parallel edges
					if rng.Intn(4) != 0 {
						break
					}
				}
			}
		}
	}
	return b.MustBuild()
}

// fanIn is a star: many level-0 nodes feeding one sink, the shape
// where a bitset row would outgrow the dense table.
func fanIn(n int) *graph.Leveled {
	b := graph.NewBuilder("fanin")
	sink := b.AddNode(1, "")
	for i := 0; i < n; i++ {
		b.AddEdge(b.AddNode(0, ""), sink)
	}
	return b.MustBuild()
}

// TestConeIndexMatchesRandomForwardPath is the cone index's
// differential over every (src, dst) pair: counts equal the dense
// saturating table, Submit accepts exactly the forward-reachable pairs,
// destination lists equal the per-source reachability scan, and path
// draws equal paths.RandomForwardPath draw for draw on a shared seed.
// It also pins the memory bound: the index payload never exceeds the
// dense per-destination arena it replaced.
func TestConeIndexMatchesRandomForwardPath(t *testing.T) {
	type tc struct {
		name      string
		g         *graph.Leveled
		saturates bool // some count hits the 2^40 cap
	}
	var cases []tc
	for k := 3; k <= 6; k++ {
		g, err := topo.Butterfly(k)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("butterfly(%d)", k), g, false})
	}
	rnd, err := topo.Random(rand.New(rand.NewSource(5)), 7, 3, 12, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// complete(30,3) has 3^30 > 2^40 paths from level 0: counts saturate.
	sat, err := topo.Complete(30, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		tc{"random-leveled", rnd, false},
		tc{"scrambled-ids", scrambledDAG(9, 6, 9, 0.25), false},
		tc{"saturating", sat, true},
		tc{"fan-in", fanIn(300), false},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			coneIndexDifferential(t, c.g, c.saturates)
		})
	}
}

func coneIndexDifferential(t *testing.T, g *graph.Leveled, saturates bool) {
	e, err := NewEngine(g, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := &e.cone
	nn := g.NumNodes()
	rows, saturated := 0, false
	for d := graph.NodeID(0); int(d) < nn; d++ {
		want := g.CountForwardPaths(d, pathCountCap)
		eligible := false
		for v := graph.NodeID(0); int(v) < nn; v++ {
			if got := x.count(v, d); got != want[v] {
				t.Fatalf("count(%d, %d) = %d, want %d", v, d, got, want[v])
			}
			saturated = saturated || want[v] == pathCountCap
			reach := v != d && want[v] > 0
			eligible = eligible || reach
			if err := e.Submit("t", v, d); (err == nil) != reach {
				t.Fatalf("Submit(%d, %d) err = %v, want reachable = %v", v, d, err, reach)
			}
		}
		if eligible {
			rows++
		}
	}
	if saturated != saturates {
		t.Fatalf("count cap hit = %v, want %v", saturated, saturates)
	}
	for s := graph.NodeID(0); int(s) < nn; s++ {
		var want []graph.NodeID
		if len(g.Node(s).Up) > 0 {
			reach := g.ForwardReachableFrom(s)
			for v := graph.NodeID(0); int(v) < nn; v++ {
				if v != s && reach[v] {
					want = append(want, v)
				}
			}
		}
		if !slices.Equal(x.dstsOf[s], want) {
			t.Fatalf("dstsOf[%d] = %v, want %v", s, x.dstsOf[s], want)
		}
	}

	// Impossible pairs fail before drawing: the shared stream below
	// would diverge if any of them consumed randomness.
	ra, rb := rand.New(newSM64(77)), rand.New(newSM64(77))
	for v := graph.NodeID(0); int(v) < nn; v++ {
		for d := graph.NodeID(0); int(d) < nn; d++ {
			if !x.reaches(v, d) {
				if _, err := x.appendPath(rb, v, d, nil); err == nil {
					t.Fatalf("appendPath(%d, %d) accepted an unreachable pair", v, d)
				}
			}
		}
	}
	for s := graph.NodeID(0); int(s) < nn; s++ {
		for _, d := range x.dstsOf[s] {
			want, err := paths.RandomForwardPath(g, ra, s, d)
			if err != nil {
				t.Fatal(err)
			}
			got, err := x.appendPath(rb, s, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("draw %d→%d = %v, want %v", s, d, got, want)
			}
		}
	}
	if ra.Int63() != rb.Int63() {
		t.Fatal("RNG streams diverged")
	}

	payload := 8*len(x.cnt) + 8*len(x.bits) + 4*len(x.rank)
	if dense := 8 * rows * nn; payload > dense {
		t.Fatalf("index payload %d B exceeds the dense table's %d B", payload, dense)
	}
}

// TestConeIndexRowForms checks both row forms are exercised: butterfly
// cones are sparse (bitset rows), complete-graph cones fill their span
// (dense rows).
func TestConeIndexRowForms(t *testing.T) {
	forms := func(g *graph.Leveled) (sparse, dense int) {
		x, err := newConeIndex(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range x.rows {
			switch {
			case r.span == 0:
			case r.word < 0:
				dense++
			default:
				sparse++
			}
		}
		return sparse, dense
	}
	bf, err := topo.Butterfly(6)
	if err != nil {
		t.Fatal(err)
	}
	if sparse, _ := forms(bf); sparse == 0 {
		t.Error("butterfly(6): no sparse rows")
	}
	cg, err := topo.Complete(8, 70)
	if err != nil {
		t.Fatal(err)
	}
	if _, dense := forms(cg); dense == 0 {
		t.Error("complete(8,70): no dense rows")
	}
}

// TestEngineButterfly8ZeroAllocs steps a warm butterfly(8) engine under
// the bulk service shape (256 random packets, then 32 steps) and
// requires 0 allocs/step: every path draw reads the cone index, with no
// per-draw counting pass to fall back to.
func TestEngineButterfly8ZeroAllocs(t *testing.T) {
	g, err := topo.Butterfly(8)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, Config{Seed: 8, Retry: RetryPolicy{MaxAttempts: 8}})
	if err != nil {
		t.Fatal(err)
	}
	op := func() {
		if err := e.SubmitRandom("bulk", 256); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(20, op); allocs != 0 {
		t.Fatalf("butterfly(8) bulk op: %v allocs per 32 steps, want 0", allocs)
	}
	if e.Peek().Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
