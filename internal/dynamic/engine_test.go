package dynamic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"hotpotato/internal/faults"
	"hotpotato/internal/graph"
	"hotpotato/internal/persist"
	"hotpotato/internal/topo"
)

// TestEngineMatchesRun: driving the Engine step by step reproduces Run
// exactly — Run is a wrapper, not a second implementation.
func TestEngineMatchesRun(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Lambda: 0.3, Steps: 400, Warmup: 40, Seed: 17, Window: 50,
		Retry: RetryPolicy{MaxAttempts: 3}}
	want, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Steps; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Finalize()
	if render(got) != render(want) {
		t.Errorf("engine loop diverged from Run:\n%s\nvs\n%s", render(got), render(want))
	}
	if got.TraceDigest == 0 || got.TraceDigest != want.TraceDigest {
		t.Errorf("digest mismatch: %x vs %x", got.TraceDigest, want.TraceDigest)
	}
}

func render(r *Result) string {
	c := *r
	c.Cfg = Config{}
	return fmt.Sprintf("%+v", c)
}

// TestEngineSnapshotRestoreByteIdentical is the tentpole contract: an
// engine frozen mid-run (through a JSON round-trip, as a real process
// handoff would) and restored in a "fresh process" finishes with a
// result byte-identical to the uninterrupted run — counters, windows,
// latency summary, RNG-dependent trajectory and trace digest included.
func TestEngineSnapshotRestoreByteIdentical(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	model := faults.Flap{Period: 40, Down: 6, Rate: 0.3}.Model(g, 11)
	cfg := Config{
		Lambda: 0.4, Steps: 600, Warmup: 50, Seed: 9,
		Faults: model,
		Retry:  RetryPolicy{MaxAttempts: 4, BaseDelay: 1, MaxDelay: 8},
		Window: 50,
	}
	uninterrupted, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{1, 137, 300, 599} {
		e, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		st, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// Cross the process boundary: serialize, parse, re-validate.
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var thawed persist.EngineState
		if err := json.Unmarshal(data, &thawed); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(g, &thawed, Hooks{Faults: model})
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		for r.StepCount() < cfg.Steps {
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
		}
		resumed := r.Finalize()
		if render(resumed) != render(uninterrupted) {
			t.Errorf("cut %d: resumed run diverged:\n%s\nvs\n%s", cut, render(resumed), render(uninterrupted))
		}
		if resumed.TraceDigest != uninterrupted.TraceDigest {
			t.Errorf("cut %d: digest %x != %x", cut, resumed.TraceDigest, uninterrupted.TraceDigest)
		}
	}
}

// TestEngineSubmitBatches drives the pure service mode (λ=0): packets
// enter only via Submit/SubmitPath/SubmitRandom, tenants are accounted
// separately, and the run drains completely.
func TestEngineSubmitBatches(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, Config{Lambda: 0, Steps: 0, Seed: 5, Window: 25,
		Retry: RetryPolicy{MaxAttempts: 8, BaseDelay: 1, MaxDelay: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if e.HasWork() {
		t.Fatal("fresh λ=0 engine claims work")
	}
	// One explicit src/dst pair.
	src := graph.NodeID(0)
	var dst graph.NodeID
	reach := g.ForwardReachableFrom(src)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if v != src && reach[v] {
			dst = v
		}
	}
	if err := e.Submit("gold", src, dst); err != nil {
		t.Fatal(err)
	}
	// One explicit path (the first packet's would-be greedy route).
	var path []graph.EdgeID
	cur := src
	for g.Node(cur).Level < g.Depth() {
		ed := g.Node(cur).Up[0]
		path = append(path, ed)
		cur = g.Edge(ed).To
	}
	if err := e.SubmitPath("gold", path); err != nil {
		t.Fatal(err)
	}
	// A random batch for another tenant.
	if err := e.SubmitRandom("free", 30); err != nil {
		t.Fatal(err)
	}
	if !e.HasWork() {
		t.Fatal("engine has pending work but claims idle")
	}
	for e.HasWork() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.StepCount() > 100000 {
			t.Fatal("batch never drained")
		}
	}
	res := e.Finalize()
	if res.Offered != 32 || res.Admitted+res.Dropped != 32 {
		t.Errorf("accounting: offered=%d admitted=%d dropped=%d", res.Offered, res.Admitted, res.Dropped)
	}
	if res.Delivered != res.Admitted {
		t.Errorf("drained engine delivered %d of %d admitted", res.Delivered, res.Admitted)
	}
	gold, free := e.Tenants()["gold"], e.Tenants()["free"]
	if gold == nil || free == nil {
		t.Fatal("tenant ledgers missing")
	}
	if gold.Submitted != 2 || free.Submitted != 30 {
		t.Errorf("tenant submitted: gold=%d free=%d", gold.Submitted, free.Submitted)
	}
	if gold.Delivered+free.Delivered != res.Delivered {
		t.Errorf("tenant deliveries %d+%d != %d", gold.Delivered, free.Delivered, res.Delivered)
	}
	// Submit validation.
	if err := e.Submit("gold", dst, src); err == nil {
		t.Error("backward src/dst pair accepted")
	}
	if err := e.SubmitPath("gold", nil); err == nil {
		t.Error("empty path accepted")
	}
	if err := e.SubmitRandom("gold", 0); err == nil {
		t.Error("zero-count random batch accepted")
	}
}

// TestWindowStatsNeverNaN is the regression test for NaN/Inf poisoning
// of windowed metrics: a window that closes with zero deliveries (and a
// drain flush on a window with zero span) must report finite fields
// that both CSV and JSON/expvar can encode.
func TestWindowStatsNeverNaN(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	// λ=0 with no submissions: every window has zero deliveries and
	// zero in-flight — the all-empty worst case.
	e, err := NewEngine(g, Config{Lambda: 0, Steps: 0, Seed: 1, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	e.FlushWindow() // partial 5-step window
	e.FlushWindow() // zero-span flush: must not emit or divide
	res := e.Finalize()
	if len(res.Windows) != 4 {
		t.Fatalf("windows = %d, want 3 full + 1 partial", len(res.Windows))
	}
	for i, w := range res.Windows {
		for name, v := range map[string]float64{
			"MeanLatency": w.MeanLatency, "MeanInFlight": w.MeanInFlight, "Availability": w.Availability,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("window %d %s = %v", i, name, v)
			}
		}
		if w.Delivered == 0 && w.MeanLatency != 0 {
			t.Errorf("window %d: empty window with nonzero mean latency %g", i, w.MeanLatency)
		}
	}
	// The whole result must be JSON-encodable (NaN would make Marshal
	// fail) and free of NaN/Inf text in any rendering.
	res.Cfg = Config{} // func fields are not marshalable
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("result not JSON-encodable: %v", err)
	}
	if !json.Valid(data) {
		t.Error("marshaled result is invalid JSON")
	}
	var csv bytes.Buffer
	for _, w := range res.Windows {
		fmt.Fprintf(&csv, "%d,%d,%.2f,%.2f,%d,%d,%d,%.4f\n",
			w.Start, w.Delivered, w.MeanLatency, w.MeanInFlight,
			w.FaultBlocked, w.FaultStalls, w.Dropped, w.Availability)
	}
	if s := csv.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("CSV export poisoned:\n%s", s)
	}
}

// TestRestoreRejectsCorruptState: the restore path re-validates against
// the graph, refusing snapshots that reference unknown nodes/edges or
// carry non-walkable paths.
func TestRestoreRejectsCorruptState(t *testing.T) {
	g, err := topo.Butterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *persist.EngineState {
		e, err := NewEngine(g, Config{Lambda: 0.3, Steps: 100, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		st, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Packets) == 0 {
			t.Fatal("test needs in-flight packets")
		}
		return st
	}

	good := mk()
	if _, err := Restore(g, good, Hooks{}); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	cases := map[string]func(*persist.EngineState){
		"bad version":      func(s *persist.EngineState) { s.Version = 99 },
		"bad kind":         func(s *persist.EngineState) { s.Kind = "campaign-checkpoint" },
		"node range":       func(s *persist.EngineState) { s.Packets[0].Cur = 10_000 },
		"edge range":       func(s *persist.EngineState) { s.Packets[0].Path[0] = 10_000 },
		"empty path":       func(s *persist.EngineState) { s.Packets[0].Path = nil },
		"broken path":      func(s *persist.EngineState) { s.Packets[0].Dst = s.Packets[0].Cur },
		"dup packet id":    func(s *persist.EngineState) { s.Packets = append(s.Packets, s.Packets[0]); s.Admitted++ },
		"count mismatch":   func(s *persist.EngineState) { s.Delivered++ },
		"negative counter": func(s *persist.EngineState) { s.Deflections = -1 },
		"nan latency": func(s *persist.EngineState) {
			s.LatSamples = append(s.LatSamples, math.NaN())
			s.LatCount++
		},
	}
	for name, corrupt := range cases {
		st := mk()
		corrupt(st)
		if _, err := Restore(g, st, Hooks{}); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", name)
		}
	}
}

// snapshotAfter runs a fresh butterfly(3) engine for n steps and
// returns its snapshot.
func snapshotAfter(t *testing.T, g *graph.Leveled, n int) *persist.EngineState {
	t.Helper()
	e, err := NewEngine(g, Config{Lambda: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestoreRejectsOversizedReservoir: a snapshot retaining more
// latency samples than the reservoir cap used to be restored whole and
// kept for good, so a hostile snapshot could pin unbounded memory.
func TestRestoreRejectsOversizedReservoir(t *testing.T) {
	g, err := topo.Butterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{latReservoirCap, latReservoirCap + 1} {
		st := snapshotAfter(t, g, 20)
		st.LatSamples = make([]float64, n)
		for i := range st.LatSamples {
			st.LatSamples[i] = 2
		}
		st.LatCount, st.LatSum = n, float64(2*n)
		e, err := Restore(g, st, Hooks{})
		if fits := n <= latReservoirCap; (err == nil) != fits {
			t.Fatalf("%d samples: restore err = %v, want accepted = %v", n, err, fits)
		}
		if err == nil && cap(e.lat.samples) != latReservoirCap {
			t.Fatalf("restored reservoir capacity %d, want %d", cap(e.lat.samples), latReservoirCap)
		}
	}
}

// TestStepCounterBound: a snapshot whose step sat near MaxInt64 used to
// restore, after which Step wrapped the counter and every later
// Snapshot failed self-validation. Now such a state is refused, and an
// engine at the counter bound refuses to step rather than overflow —
// its snapshots stay valid.
func TestStepCounterBound(t *testing.T) {
	g, err := topo.Butterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	st := snapshotAfter(t, g, 20)
	st.Step = math.MaxInt64 - 1
	if _, err := Restore(g, st, Hooks{}); err == nil {
		t.Fatal("snapshot with step near MaxInt64 restored")
	}

	st = snapshotAfter(t, g, 20)
	st.Step = persist.MaxEngineCounter - 2
	e, err := Restore(g, st, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := e.Step(); err != nil {
			t.Fatalf("step %d below the bound: %v", i, err)
		}
	}
	if err := e.Step(); err == nil {
		t.Fatal("stepped past the counter bound")
	}
	if e.StepCount() != persist.MaxEngineCounter {
		t.Fatalf("step count %d, want the bound %d", e.StepCount(), persist.MaxEngineCounter)
	}
	if _, err := e.Snapshot(); err != nil {
		t.Fatalf("snapshot at the bound: %v", err)
	}

	// Packet ids: a step may inject one packet per node, so the engine
	// stops while a full step of ids still fits under the bound.
	st = snapshotAfter(t, g, 20)
	st.NextID = persist.MaxEngineCounter - g.NumNodes() + 1
	if e, err = Restore(g, st, Hooks{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err == nil {
		t.Fatal("stepped with too few packet ids left")
	}
}
