package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/topo"
)

func TestRunLayersQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("layer benchmark is slow; skipped under -short")
	}
	b, err := RunLayers(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.GoVersion == "" || b.GOOS == "" || b.GOARCH == "" || b.NumCPU <= 0 || b.GOMAXPROCS <= 0 {
		t.Errorf("missing host header: %+v", b)
	}
	// The sparse butterfly is swept at the workers>1 counts GOMAXPROCS
	// can schedule; counts it cannot are listed in SkippedWorkers
	// instead of recorded.
	wantPar := 0
	for _, w := range []int{2, 4, 8} {
		if w <= b.GOMAXPROCS {
			wantPar++
		}
	}
	if got := len(b.SkippedWorkers); got != 3-wantPar {
		t.Errorf("skipped_workers = %v, want %d entries", b.SkippedWorkers, 3-wantPar)
	}
	perLayer := map[string]int{}
	for _, r := range b.Rows {
		perLayer[r.Layer]++
		if r.Steps <= 0 || r.WallNS <= 0 || r.NsPerStep <= 0 || r.StepsPerSec <= 0 || r.AllocsPerStep < 0 {
			t.Errorf("%s: bad measurement: %+v", rowKey(r), r)
		}
		if r.Workers < 1 || r.TimingBasis == "" {
			t.Errorf("%s: missing workers or timing basis: %+v", rowKey(r), r)
		}
		if r.Gomaxprocs != b.GOMAXPROCS || r.NumCPU != b.NumCPU || r.CPUModel != b.CPUModel {
			t.Errorf("%s: row host stamp %d/%d/%q differs from header %d/%d/%q",
				rowKey(r), r.Gomaxprocs, r.NumCPU, r.CPUModel, b.GOMAXPROCS, b.NumCPU, b.CPUModel)
		}
		if r.RampSteps > r.Steps || r.RampNS > r.WallNS {
			t.Errorf("%s: ramp segment %d steps / %d ns outside run %d steps / %d ns",
				rowKey(r), r.RampSteps, r.RampNS, r.Steps, r.WallNS)
		}
		switch r.Layer {
		case LayerEngine:
			if r.MaxInFlight <= 0 || r.MaxInFlight > r.Packets {
				t.Errorf("%s: max in flight %d outside (0, %d]", rowKey(r), r.MaxInFlight, r.Packets)
			}
			if r.SteadyState != (r.Workers == 1) {
				t.Errorf("%s: steady-state flag %v", rowKey(r), r.SteadyState)
			}
			if (r.Workers > 1) != (r.SpeedupVs1 > 0 && r.ParallelEfficiency > 0) {
				t.Errorf("%s: speedup annotation %g/%g", rowKey(r), r.SpeedupVs1, r.ParallelEfficiency)
			}
		case LayerEnsemble:
			if r.Trials <= 0 || r.TrialsPerSec <= 0 || r.SteadyState {
				t.Errorf("%s: bad ensemble row %+v", rowKey(r), r)
			}
			if (r.Scenario == "mesh(8)-hard-reused") != (r.ReuseSpeedup > 0) {
				t.Errorf("%s: reuse speedup %g", rowKey(r), r.ReuseSpeedup)
			}
		case LayerDynamic:
			if !r.SteadyState || r.Workers != 1 || r.Packets != r.Batches*r.BatchSize || r.MaxInFlight <= 0 {
				t.Errorf("%s: bad dynamic row %+v", rowKey(r), r)
			}
		case LayerObs:
			if r.SteadyState || r.Steps < obsMinSteps {
				t.Errorf("%s: bad obs row %+v", rowKey(r), r)
			}
		default:
			t.Errorf("unknown layer %q", r.Layer)
		}
	}
	want := map[string]int{LayerEngine: 4 + wantPar, LayerEnsemble: 2, LayerDynamic: 1, LayerObs: 6}
	if !reflect.DeepEqual(perLayer, want) {
		t.Errorf("rows per layer = %v, want %v", perLayer, want)
	}
	// The zero-alloc claim: warmed engines of both kinds must not
	// allocate on the sequential stepping path.
	if err := CheckStrictAllocs(b); err != nil {
		t.Error(err)
	}
}

// strictChildEnv marks a child process of
// TestStrictAllocsExactAtFullGOMAXPROCS.
const strictChildEnv = "HOTPOTATO_BENCH_STRICT_CHILD"

// TestStrictAllocsExactAtFullGOMAXPROCS records the sequential dynamic
// and engine rows with every CPU schedulable, each time in a fresh
// process. A young process starts OS threads as it goes; a rep counted
// with more than one P can include that start-up (runtime.allocm under
// startTheWorld, one allocation per rep in most fresh processes on a
// 2-CPU host), which the engine does not allocate.
func TestStrictAllocsExactAtFullGOMAXPROCS(t *testing.T) {
	if os.Getenv(strictChildEnv) == "1" {
		runtime.GOMAXPROCS(runtime.NumCPU())
		b := newLayerBench(1)
		if err := recordDynamic(b); err != nil {
			t.Fatal(err)
		}
		if err := recordEngine(b); err != nil {
			t.Fatal(err)
		}
		if err := CheckStrictAllocs(b); err != nil {
			t.Fatal(err)
		}
		return
	}
	if testing.Short() {
		t.Skip("repeated recording is slow; skipped under -short")
	}
	if n := runtime.NumCPU(); n < 2 {
		t.Skipf("NumCPU = %d: one P starts no extra OS threads", n)
	}
	for i := 0; i < 5; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestStrictAllocsExactAtFullGOMAXPROCS$")
		cmd.Env = append(os.Environ(), strictChildEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("recording %d in a fresh process: %v\n%s", i, err, out)
		}
	}
}

// layerFixture is a document with one row of every layer, including a
// parallel engine row.
func layerFixture() *LayerBench {
	return &LayerBench{GoVersion: "go1.x", GOOS: "linux", GOARCH: "amd64", NumCPU: 4, GOMAXPROCS: 4, Scale: 2, Rows: []LayerRow{
		{Layer: LayerEngine, Scenario: "butterfly(8)-dense", Workers: 1, Shards: 1, Gomaxprocs: 4, Steps: 14, NsPerStep: 1000, SteadyState: true},
		{Layer: LayerEngine, Scenario: "butterfly(12)-sparse", Workers: 4, Shards: 32, Gomaxprocs: 4, Steps: 267, NsPerStep: 500},
		{Layer: LayerEnsemble, Scenario: "mesh(8)-hard-reused", Workers: 4, Gomaxprocs: 4, Trials: 128, Steps: 9000, NsPerStep: 200, ReuseSpeedup: 1.1},
		{Layer: LayerDynamic, Scenario: "butterfly(5)-service", Workers: 1, Gomaxprocs: 4, Steps: 120, NsPerStep: 1500, SteadyState: true, Batches: 24, BatchSize: 16},
		{Layer: LayerObs, Scenario: "mesh(16)-hard/probe", Workers: 1, Gomaxprocs: 4, Steps: 1 << 14, NsPerStep: 800, OverheadPct: 12},
	}}
}

// TestGatesEveryLayer drives the three document gates over a row of
// every layer: a ≥15% ns/step slowdown fails Compare, a single
// allocation on a steady row fails CheckStrictAllocs, a GOMAXPROCS
// mismatch on a parallel row warns instead of gating, and a scale
// mismatch compares nothing.
func TestGatesEveryLayer(t *testing.T) {
	for i, r := range layerFixture().Rows {
		t.Run(fmt.Sprintf("%s-workers=%d", r.Layer, r.Workers), func(t *testing.T) {
			base := layerFixture()
			cur := layerFixture()
			row := &cur.Rows[i]
			if w, err := Compare(base, cur, 0.10); err != nil || len(w) != 0 {
				t.Fatalf("identical documents: %v (warnings %v)", err, w)
			}
			row.NsPerStep = base.Rows[i].NsPerStep * 1.05
			if _, err := Compare(base, cur, 0.10); err != nil {
				t.Errorf("5%% slowdown tripped the 10%% gate: %v", err)
			}
			row.NsPerStep = base.Rows[i].NsPerStep * 1.15
			if _, err := Compare(base, cur, 0.10); err == nil {
				t.Error("15% slowdown passed the 10% gate")
			}

			// Scale mismatch: nothing compared, one warning.
			cur.Scale = 1
			if w, err := Compare(base, cur, 0.10); err != nil || len(w) != 1 {
				t.Errorf("cross-scale comparison: %v (warnings %v), want a no-op with 1 warning", err, w)
			}
			cur.Scale = base.Scale

			// GOMAXPROCS mismatch: a parallel row warns and is not gated;
			// a sequential row still gates.
			row.Gomaxprocs = 8
			w, err := Compare(base, cur, 0.10)
			if row.Workers > 1 {
				if err != nil || len(w) != 1 {
					t.Errorf("cross-host parallel row: %v (warnings %v), want 1 warning and no gate", err, w)
				}
			} else if err == nil {
				t.Error("15% slowdown on a sequential row passed once GOMAXPROCS differed")
			}
			row.Gomaxprocs, row.NsPerStep = base.Rows[i].Gomaxprocs, base.Rows[i].NsPerStep

			// One allocation over the whole rep of a steady row fails the
			// strict gate.
			row.SteadyState = true
			if err := CheckStrictAllocs(cur); err != nil {
				t.Fatalf("zero-alloc document failed: %v", err)
			}
			row.AllocsPerStep = 1 / float64(row.Steps)
			if err := CheckStrictAllocs(cur); err == nil {
				t.Error("a single allocation on a steady row passed the strict gate")
			}
		})
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_layers.json")
	want := layerFixture()
	want.SkippedWorkers = []int{8}
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the document:\n got %+v\nwant %+v", got, want)
	}
	if _, err := Read(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("reading a missing file succeeded")
	}
}

// TestCommittedBaselineReadsBack pins the committed BENCH_layers.json to
// the schema: it must decode without losing a field (re-encoding gives
// the same bytes) and hold the engine, ensemble and dynamic rows the
// CI regression gate compares against.
func TestCommittedBaselineReadsBack(t *testing.T) {
	const path = "../../BENCH_layers.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), raw) {
		t.Error("BENCH_layers.json does not re-encode to the same bytes: it carries fields the schema drops")
	}
	layers := map[string]int{}
	for _, r := range b.Rows {
		layers[r.Layer]++
	}
	if b.Scale != 2 || layers[LayerEngine] == 0 || layers[LayerEnsemble] != 2 || layers[LayerDynamic] == 0 {
		t.Errorf("baseline scale %d, rows per layer %v", b.Scale, layers)
	}
}

func TestAnnotateParallelEfficiency(t *testing.T) {
	b := &LayerBench{Rows: []LayerRow{
		{Layer: LayerEngine, Scenario: "a", Workers: 1, NsPerStep: 1200, SteadyNsPerStep: 1000},
		{Layer: LayerEngine, Scenario: "a", Workers: 4, NsPerStep: 700, SteadyNsPerStep: 500},
		{Layer: LayerEngine, Scenario: "lonely", Workers: 2, NsPerStep: 100},
		// Same scenario name, other layer: not a counterpart.
		{Layer: LayerEnsemble, Scenario: "a", Workers: 4, NsPerStep: 100},
	}}
	annotateParallelEfficiency(b)
	if got := b.Rows[1].SpeedupVs1; got != 2.0 {
		t.Errorf("speedup_vs_1 = %g, want 2.0 (steady 1000 vs 500)", got)
	}
	if got := b.Rows[1].ParallelEfficiency; got != 0.5 {
		t.Errorf("parallel_efficiency = %g, want 0.5", got)
	}
	if b.Rows[0].SpeedupVs1 != 0 || b.Rows[2].SpeedupVs1 != 0 || b.Rows[3].SpeedupVs1 != 0 {
		t.Errorf("row without a workers=1 counterpart annotated: %+v", b.Rows)
	}
}

func TestCheckParallelSpeedup(t *testing.T) {
	b := &LayerBench{GOMAXPROCS: 4, Rows: []LayerRow{
		{Layer: LayerEngine, Scenario: "a", Workers: 1, NsPerStep: 1000},
		{Layer: LayerEngine, Scenario: "a", Workers: 4, NsPerStep: 500, SpeedupVs1: 2.0, ParallelEfficiency: 0.5},
		// The ensemble runs at GOMAXPROCS workers with no sweep; it is
		// not speedup evidence and must not fail the gate.
		{Layer: LayerEnsemble, Scenario: "e", Workers: 4, NsPerStep: 100},
	}}
	if err := CheckParallelSpeedup(b, 4, 1.5); err != nil {
		t.Errorf("2.0x speedup failed the 1.5x gate: %v", err)
	}
	if err := CheckParallelSpeedup(b, 4, 2.5); err == nil {
		t.Error("2.0x speedup passed the 2.5x gate")
	}
	if err := CheckParallelSpeedup(b, 2, 1.5); err == nil {
		t.Error("gate passed with no workers=2 row recorded")
	}
	b.Rows[1].SpeedupVs1 = 0
	if err := CheckParallelSpeedup(b, 4, 1.5); err == nil {
		t.Error("gate passed on a row without a speedup annotation")
	}
}

func TestCheckStrictAllocs(t *testing.T) {
	b := &LayerBench{Rows: []LayerRow{
		{Layer: LayerEngine, Scenario: "a", Workers: 1, SteadyState: true, AllocsPerStep: 0},
		{Layer: LayerEngine, Scenario: "b", Workers: 4, SteadyState: false, AllocsPerStep: 0.25},
		{Layer: LayerDynamic, Scenario: "c-faulted", Workers: 1, SteadyState: false, AllocsPerStep: 0.5},
	}}
	if err := CheckStrictAllocs(b); err != nil {
		t.Errorf("allocations on rows outside the contract must not trip the gate: %v", err)
	}
	b.Rows[0].AllocsPerStep = 0.01
	if err := CheckStrictAllocs(b); err == nil {
		t.Error("steady-state allocs did not trip the gate")
	}
}

// BenchmarkDynamicStep measures the open-system engine's per-step cost
// under the sustained service workload (a SubmitRandom batch every few
// steps, the scripted shape recordDynamic replays): the go-bench
// counterpart of the dynamic butterfly(5)-service row. On a warmed
// engine it must report 0 allocs/op.
func BenchmarkDynamicStep(b *testing.B) {
	g, err := topo.Butterfly(5)
	if err != nil {
		b.Fatal(err)
	}
	e, err := dynamic.NewEngine(g, dynamic.Config{
		Seed:  42,
		Retry: dynamic.RetryPolicy{MaxAttempts: 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	step := func() {
		if err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
	// Warm rep: one full batch/advance/drain script grows every backing
	// (slot columns, path buffers, queue arenas, the tenant ledger).
	for batch := 0; batch < 24; batch++ {
		if err := e.SubmitRandom("bench", 16); err != nil {
			b.Fatal(err)
		}
		for a := 0; a < 5; a++ {
			step()
		}
	}
	for e.HasWork() {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%5 == 0 {
			if err := e.SubmitRandom("bench", 16); err != nil {
				b.Fatal(err)
			}
		}
		step()
	}
}
