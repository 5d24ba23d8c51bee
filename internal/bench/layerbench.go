package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hotpotato/internal/baselines"
	"hotpotato/internal/core"
	"hotpotato/internal/dynamic"
	"hotpotato/internal/faults"
	"hotpotato/internal/mc"
	"hotpotato/internal/obs"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// The layers a LayerBench records. A row is keyed by (layer, scenario,
// workers); variants of one setup (ensemble fresh/reused, observability
// modes) are spelled into the scenario name.
const (
	// LayerEngine is the batch hot-potato engine (sim.Engine) on
	// representative topologies, plus the sparse butterfly's worker sweep.
	LayerEngine = "engine"
	// LayerEnsemble is Monte-Carlo ensemble throughput with per-worker
	// engine reuse ("-reused", the default) against rebuilding every
	// engine ("-fresh").
	LayerEnsemble = "ensemble"
	// LayerDynamic is the open-system (service) engine under the
	// scripted batch/advance/drain workload of scripts/service_smoke.sh.
	LayerDynamic = "dynamic"
	// LayerObs is the batch engine with progressively more
	// instrumentation attached ("/disabled", "/probe",
	// "/probe+lifecycle").
	LayerObs = "obs"
)

// LayerRow is one (layer, scenario, workers) measurement. Fields a
// layer does not measure stay zero and are omitted from the JSON.
type LayerRow struct {
	Layer    string `json:"layer"`
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes,omitempty"`
	Edges    int    `json:"edges,omitempty"`
	// Packets is the workload size (dynamic: packets submitted per rep,
	// as Batches batches of BatchSize, AdvancePer steps apart).
	Packets   int `json:"packets,omitempty"`
	Batches   int `json:"batches,omitempty"`
	BatchSize int `json:"batch_size,omitempty"`
	// Faulted marks rows run under a flap fault campaign; RetryMax is
	// the admission retry budget.
	Faulted  bool `json:"faulted,omitempty"`
	RetryMax int  `json:"retry_max_attempts,omitempty"`
	// Trials is the ensemble size of an ensemble row.
	Trials int `json:"trials,omitempty"`
	// Workers and Shards are the parallel configuration: the engine's
	// parallel step (1/1 = sequential; the committed trace is identical
	// across configurations) or the ensemble's worker count. The dynamic
	// engine is single-threaded by contract, so its rows record 1.
	Workers int `json:"workers"`
	Shards  int `json:"shards,omitempty"`
	// Gomaxprocs, NumCPU and CPUModel stamp the scheduler configuration
	// and processor the row was measured under.
	Gomaxprocs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	// Steps and WallNS cover the recorded measurement: the fastest of
	// benchReps warmed reps (engine, dynamic), one timed ensemble, or
	// runs accumulated to obsMinSteps (obs). TimingBasis names which.
	Steps        int     `json:"steps"`
	WallNS       int64   `json:"wall_ns"`
	NsPerStep    float64 `json:"ns_per_step"`
	StepsPerSec  float64 `json:"steps_per_sec"`
	TrialsPerSec float64 `json:"trials_per_sec,omitempty"`
	TimingBasis  string  `json:"timing_basis"`
	// RampSteps/RampNS time the admission ramp, the prefix during which
	// the workload is still injecting (engine) or submitting (dynamic).
	// SteadyNsPerStep isolates the remainder when one exists: from the
	// recorded rep on the engine layer, the fastest drain across reps on
	// the dynamic layer (a dynamic rep can drain exactly at its last
	// advance step and contribute no drain sample).
	RampSteps       int     `json:"ramp_steps,omitempty"`
	RampNS          int64   `json:"ramp_ns,omitempty"`
	SteadyNsPerStep float64 `json:"steady_ns_per_step,omitempty"`
	// AllocsPerStep is heap allocations per step. On SteadyState rows —
	// the ones CheckStrictAllocs gates at exactly 0 — it is the max over
	// benchReps extra untimed reps run at GOMAXPROCS=1, as
	// testing.AllocsPerRun counts, so an OS thread the runtime starts
	// mid-rep is not charged to the engine. Other rows report the max
	// across their timed reps.
	AllocsPerStep float64 `json:"allocs_per_step"`
	SteadyState   bool    `json:"steady_state"`
	MaxInFlight   int     `json:"max_in_flight,omitempty"`
	// SpeedupVs1 and ParallelEfficiency relate a workers>1 row to the
	// workers=1 row of the same layer and scenario: speedup = steady
	// ns/step(1w) / steady ns/step(Nw) (whole-run ns/step when a row has
	// no steady segment), efficiency = speedup / workers.
	SpeedupVs1         float64 `json:"speedup_vs_1,omitempty"`
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`
	// ReuseSpeedup (on the reused ensemble row) is fresh wall / reused
	// wall; OverheadPct (on obs rows) is ns/step relative to the
	// disabled row of the same topology.
	ReuseSpeedup float64 `json:"reuse_speedup,omitempty"`
	OverheadPct  float64 `json:"overhead_pct,omitempty"`
}

// LayerBench is the BENCH_layers.json document: one host header and
// every layer's rows. NumCPU and GOMAXPROCS record the machine the
// numbers were taken on — single-core hosts cannot show parallel
// speedup, only the (small) coordination overhead.
type LayerBench struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel names the recording host's processor when the platform
	// exposes it (/proc/cpuinfo on linux); empty otherwise.
	CPUModel string `json:"cpu_model,omitempty"`
	Scale    int    `json:"scale"`
	// SkippedWorkers lists worker counts the engine sweep did not record
	// because GOMAXPROCS could not schedule them: such rows would show
	// coordination overhead, not scaling.
	SkippedWorkers []int      `json:"skipped_workers,omitempty"`
	Rows           []LayerRow `json:"rows"`
}

// cpuModel best-effort-identifies the host processor. Linux exposes it
// in /proc/cpuinfo; elsewhere (or in stripped containers) the empty
// string is recorded and consumers fall back to num_cpu/gomaxprocs.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

func newLayerBench(scale int) *LayerBench {
	if scale < 1 {
		scale = 1
	}
	return &LayerBench{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Scale:      scale,
	}
}

// add stamps r with the host and appends it.
func (b *LayerBench) add(r LayerRow) {
	r.Gomaxprocs, r.NumCPU, r.CPUModel = runtime.GOMAXPROCS(0), runtime.NumCPU(), b.CPUModel
	b.Rows = append(b.Rows, r)
}

// RunLayers records every layer at the given scale. Scale 1 is the
// quick shape; scale 2 grows the topologies to the sizes quoted in
// docs/ALGORITHM.md and adds the larger and faulted dynamic scripts.
func RunLayers(scale int) (*LayerBench, error) {
	b := newLayerBench(scale)
	for _, record := range []func(*LayerBench) error{recordEngine, recordEnsemble, recordDynamic, recordObs} {
		if err := record(b); err != nil {
			return nil, err
		}
	}
	annotateParallelEfficiency(b)
	return b, nil
}

// benchReps is how many measured reps an engine or dynamic row takes;
// the fastest is recorded. Short rows (the dense butterfly drains in
// ~14 steps) last tens of microseconds, where a single shot is
// dominated by scheduler and cache noise. Best-of damps exactly that
// one-sided noise (nothing makes a run spuriously fast), while the
// allocation count is a max, so best-of timing never hides an
// allocating rep.
const benchReps = 3

// rep is one measured run: its steps and wall time, split at the end
// of the admission ramp.
type rep struct {
	steps, rampSteps int
	wall, ramp       time.Duration
	maxInFlight      int
}

func (r rep) nsPerStep() float64 { return float64(r.wall.Nanoseconds()) / float64(r.steps) }

// drainNsPerStep is the post-ramp ns/step, 0 when the run had no drain.
func (r rep) drainNsPerStep() float64 {
	if drain := r.steps - r.rampSteps; drain > 0 {
		return float64(r.wall.Nanoseconds()-r.ramp.Nanoseconds()) / float64(drain)
	}
	return 0
}

// measured is what measure keeps of a scenario's reps.
type measured struct {
	best      rep     // the fastest rep by ns/step
	bestDrain float64 // the fastest post-ramp ns/step across reps (0: none)
	allocs    float64 // allocs/step, max across the counted reps
}

// measure runs reps timed reps of an already-warmed scenario. prep
// runs before each rep, outside both the clock and the allocation
// count. Each rep starts after a GC. With steady set, the allocation
// figure instead comes from reps further untimed reps at GOMAXPROCS=1
// (restored afterwards), the way testing.AllocsPerRun counts: with
// more Ps the runtime may start an OS thread mid-rep, and the
// allocation that costs is the runtime's, not the code's.
func measure(reps int, steady bool, prep func(), run func() (rep, error)) (measured, error) {
	var m measured
	for i := 0; i < reps; i++ {
		r, allocs, err := countedRep(prep, run)
		if err != nil {
			return m, err
		}
		if allocs > m.allocs {
			m.allocs = allocs
		}
		if d := r.drainNsPerStep(); d > 0 && (m.bestDrain == 0 || d < m.bestDrain) {
			m.bestDrain = d
		}
		if i == 0 || r.nsPerStep() < m.best.nsPerStep() {
			m.best = r
		}
	}
	if !steady {
		return m, nil
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m.allocs = 0
	for i := 0; i < reps; i++ {
		_, allocs, err := countedRep(prep, run)
		if err != nil {
			return m, err
		}
		if allocs > m.allocs {
			m.allocs = allocs
		}
	}
	return m, nil
}

// countedRep runs one rep and returns it with its allocations per step.
func countedRep(prep func(), run func() (rep, error)) (rep, float64, error) {
	if prep != nil {
		prep()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := run()
	runtime.ReadMemStats(&after)
	if err != nil {
		return r, 0, err
	}
	if r.steps <= 0 {
		return r, 0, fmt.Errorf("bench: rep executed no steps")
	}
	return r, float64(after.Mallocs-before.Mallocs) / float64(r.steps), nil
}

// fill copies a measurement's timing and allocation figures into row.
func (m measured) fill(row *LayerRow, basis string) {
	r := m.best
	row.Steps, row.WallNS = r.steps, r.wall.Nanoseconds()
	row.NsPerStep = r.nsPerStep()
	row.StepsPerSec = float64(r.steps) / r.wall.Seconds()
	row.TimingBasis = basis
	row.RampSteps, row.RampNS = r.rampSteps, r.ramp.Nanoseconds()
	row.AllocsPerStep = m.allocs
	row.MaxInFlight = r.maxInFlight
}

// staggeredGreedy admits packet i only from step i/rate, keeping a few
// percent of a large workload in flight at once — the sparse regime the
// active-set bookkeeping exists for (a full sweep would pay for every
// node and packet per step regardless of activity).
type staggeredGreedy struct {
	*baselines.Greedy
	rate int
}

func (s *staggeredGreedy) WantInject(t int, p *sim.Packet) bool {
	return t >= int(p.ID)/s.rate
}

// InjectStep overrides the embedded Greedy's step-0 bound with the
// wrapper's exact admission step, so the engine's release queue sweeps
// only the packets at the admission edge instead of the whole workload
// — on the sparse butterfly this removes the O(N)-pending scan that
// dominated the old per-step cost.
func (s *staggeredGreedy) InjectStep(p *sim.Packet) int { return int(p.ID) / s.rate }

// ConcurrentRequests certifies the wrapper like the wrapped Greedy:
// the admission schedule is a pure function of (t, packet ID).
func (s *staggeredGreedy) ConcurrentRequests() bool { return true }

// engineWorkerCounts is the parallel-step sweep recorded for the sparse
// butterfly: sequential, then 2/4/8 workers.
var engineWorkerCounts = []int{1, 2, 4, 8}

// engineSizes returns the dense butterfly, sparse butterfly and hard
// mesh sizes of a scale.
func engineSizes(scale int) (denseK, sparseK, meshN int) {
	if scale >= 2 {
		return 8, 12, 16
	}
	return 7, 10, 12
}

func denseButterfly(k int, seedID string) (*workload.Problem, error) {
	g, err := topo.Butterfly(k)
	if err != nil {
		return nil, err
	}
	return workload.FullThroughput(g, rngFor(seedID, k))
}

// recordEngine measures the batch engine's per-step cost on dense and
// sparse butterflies, the hard mesh workload and a random leveled
// network, and sweeps the sparse butterfly over the worker counts
// GOMAXPROCS can schedule. Each row warms the engine with an unmeasured
// run, then times benchReps Reset-rewound runs, so measured runs see
// only steady-state work: no scratch growth, no pool spin-up and no
// injection-arena setup (Reset rebuilds the release queue outside the
// clock). Each run is split at the last injection, so sparse
// workloads with long staggered injection tails also report a
// post-injection steady rate.
func recordEngine(b *LayerBench) error {
	denseK, sparseK, meshN := engineSizes(b.Scale)
	cases := []struct {
		name  string
		build func() (*workload.Problem, error)
		route func() sim.Router
		// workerSweep additionally records the row at each worker count
		// beyond 1, reusing the engine via Reset.
		workerSweep bool
	}{
		{
			name:  fmt.Sprintf("butterfly(%d)-dense", denseK),
			build: func() (*workload.Problem, error) { return denseButterfly(denseK, "bench-engine-dense") },
			route: func() sim.Router { return baselines.NewGreedy() },
		},
		{
			name:        fmt.Sprintf("butterfly(%d)-sparse", sparseK),
			build:       func() (*workload.Problem, error) { return denseButterfly(sparseK, "bench-engine-sparse") },
			route:       func() sim.Router { return &staggeredGreedy{Greedy: baselines.NewGreedy(), rate: 16} },
			workerSweep: true,
		},
		{
			name:  fmt.Sprintf("mesh(%d)-hard", meshN),
			build: func() (*workload.Problem, error) { return workload.MeshHard(meshN) },
			route: func() sim.Router { return baselines.NewGreedy() },
		},
		{
			name: "random(depth=24)",
			build: func() (*workload.Problem, error) {
				g, err := topo.Random(rngFor("bench-engine-random", 0), 24, 4, 8, 0.5)
				if err != nil {
					return nil, err
				}
				return workload.Random(g, rngFor("bench-engine-random", 1), 0.5)
			},
			route: func() sim.Router { return baselines.NewGreedy() },
		},
	}

	for _, c := range cases {
		p, err := c.build()
		if err != nil {
			return fmt.Errorf("bench: %s: %w", c.name, err)
		}
		workerCounts := []int{1}
		if c.workerSweep {
			workerCounts = workerCounts[:0]
			for _, w := range engineWorkerCounts {
				if w > 1 && w > b.GOMAXPROCS {
					b.SkippedWorkers = append(b.SkippedWorkers, w)
					continue
				}
				workerCounts = append(workerCounts, w)
			}
		}
		e := sim.NewEngine(p, c.route(), 1)
		err = func() error {
			defer e.Close()
			for _, w := range workerCounts {
				if w > 1 {
					e.SetParallelism(w, 0)
				}
				if err := recordEngineRow(b, c.name, p, e); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

// recordEngineRow times full runs of e at its current parallelism.
func recordEngineRow(b *LayerBench, name string, p *workload.Problem, e *sim.Engine) error {
	workers, shards := e.Parallelism()
	e.Reset(1)
	if _, done := e.Run(1 << 22); !done {
		return fmt.Errorf("bench: %s (warmup, workers=%d) did not complete within budget", name, workers)
	}
	m, err := measure(benchReps, workers == 1, func() { e.Reset(1) }, func() (rep, error) {
		start := time.Now()
		// Ramp segment: step until every packet has been injected (or
		// the run drains first). This is the same Step loop Run uses,
		// so the trace is unaffected.
		r := rep{}
		for e.M.Injected < p.N() && !e.Done() && r.rampSteps < 1<<22 {
			e.Step()
			r.rampSteps++
		}
		r.ramp = time.Since(start)
		steps, done := e.Run(1 << 22)
		r.wall = time.Since(start)
		if !done {
			return r, fmt.Errorf("bench: %s (workers=%d) did not complete within budget", name, workers)
		}
		r.steps, r.maxInFlight = steps, e.M.MaxInFlight
		return r, nil
	})
	if err != nil {
		return err
	}
	row := LayerRow{
		Layer: LayerEngine, Scenario: name,
		Nodes: p.G.NumNodes(), Edges: p.G.NumEdges(), Packets: p.N(),
		Workers: workers, Shards: shards, SteadyState: workers == 1,
	}
	m.fill(&row, "steady-run")
	row.SteadyNsPerStep = m.best.drainNsPerStep()
	b.add(row)
	return nil
}

// recordEnsemble times the same Monte-Carlo ensemble twice: once
// rebuilding every engine (FreshEngines) and once with the default
// per-worker engine reuse. The fresh path is warmed once first (page
// faults and lazily built topology caches are real).
func recordEnsemble(b *LayerBench) error {
	const meshN = 8
	p, err := workload.MeshHard(meshN)
	if err != nil {
		return err
	}
	params := core.ParamsPractical(p.C, p.L(), p.N(),
		core.PracticalConfig{SetCongestion: 4, FrameSlack: 3, RoundFactor: 3})
	trials := 64 * b.Scale
	run := func(fresh bool) (rep, error) {
		start := time.Now()
		ens, err := mc.Run(p, params, mc.Options{Trials: trials, FreshEngines: fresh})
		r := rep{wall: time.Since(start)}
		if err != nil {
			return r, err
		}
		for _, t := range ens.Trials {
			r.steps += t.Steps
		}
		return r, nil
	}
	if _, err := run(true); err != nil {
		return err
	}
	var fresh time.Duration
	for _, mode := range []string{"fresh", "reused"} {
		m, err := measure(1, false, nil, func() (rep, error) { return run(mode == "fresh") })
		if err != nil {
			return err
		}
		row := LayerRow{
			Layer: LayerEnsemble, Scenario: fmt.Sprintf("mesh(%d)-hard-%s", meshN, mode),
			Nodes: p.G.NumNodes(), Edges: p.G.NumEdges(), Packets: p.N(),
			Trials: trials, Workers: runtime.GOMAXPROCS(0),
		}
		m.fill(&row, "ensemble-run")
		row.TrialsPerSec = float64(trials) / m.best.wall.Seconds()
		if mode == "fresh" {
			fresh = m.best.wall
		} else {
			row.ReuseSpeedup = fresh.Seconds() / m.best.wall.Seconds()
		}
		b.add(row)
	}
	return nil
}

// dynDrainBudget bounds the drain loop of one dynamic rep; a run that
// cannot drain within it is broken, not slow.
const dynDrainBudget = 1 << 20

// recordDynamic measures the open-system engine on the service-smoke
// butterfly (scale 1) plus a larger butterfly and a faulted variant
// (scale 2): the manual-stepped batch/advance/drain shape
// scripts/service_smoke.sh drives through the HTTP API, minus the
// HTTP. Each script is replayed once unmeasured on its engine — paying
// every startup transient: slot-buffer growth, queue backings, tenant
// interning, reservoir fill-up — so measured reps see the steady state
// a long-running service operates in. The faulted row is reported but
// not alloc-gated: fault-model closures are outside the engine's
// allocation contract.
func recordDynamic(b *LayerBench) error {
	base := dynamic.Config{Seed: 42, Retry: dynamic.RetryPolicy{MaxAttempts: 8}}
	type script struct {
		name                    string
		k                       int // butterfly dimension
		batches, batchSize, adv int
		faulted                 bool
	}
	scripts := []script{{name: "butterfly(5)-service", k: 5, batches: 24, batchSize: 16, adv: 5}}
	if b.Scale >= 2 {
		scripts = append(scripts,
			script{name: "butterfly(7)-service", k: 7, batches: 48, batchSize: 32, adv: 5},
			script{name: "butterfly(5)-service-faulted", k: 5, batches: 24, batchSize: 16, adv: 5, faulted: true},
		)
	}
	for _, sc := range scripts {
		g, err := topo.Butterfly(sc.k)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", sc.name, err)
		}
		cfg := base
		if sc.faulted {
			cfg.Faults = faults.Flap{Period: 40, Down: 6, Rate: 0.3}.Model(g, 11)
		}
		e, err := dynamic.NewEngine(g, cfg)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", sc.name, err)
		}
		run := func() (rep, error) {
			var r rep
			start := time.Now()
			steps0 := e.StepCount()
			for i := 0; i < sc.batches; i++ {
				if err := e.SubmitRandom("bench", sc.batchSize); err != nil {
					return r, err
				}
				for a := 0; a < sc.adv; a++ {
					if err := e.Step(); err != nil {
						return r, err
					}
				}
			}
			r.rampSteps = e.StepCount() - steps0
			r.ramp = time.Since(start)
			for i := 0; e.HasWork(); i++ {
				if i >= dynDrainBudget {
					return r, fmt.Errorf("bench: %s did not drain within budget", sc.name)
				}
				if err := e.Step(); err != nil {
					return r, err
				}
			}
			r.steps = e.StepCount() - steps0
			r.wall = time.Since(start)
			r.maxInFlight = e.Peek().PeakInFlight
			return r, nil
		}
		if _, err := run(); err != nil {
			return err
		}
		m, err := measure(benchReps, !sc.faulted, nil, run)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", sc.name, err)
		}
		row := LayerRow{
			Layer: LayerDynamic, Scenario: sc.name,
			Nodes: g.NumNodes(), Edges: g.NumEdges(), Packets: sc.batches * sc.batchSize,
			Batches: sc.batches, BatchSize: sc.batchSize,
			Faulted: sc.faulted, RetryMax: cfg.Retry.MaxAttempts,
			Workers: 1, SteadyState: !sc.faulted,
		}
		m.fill(&row, "warmed-rep")
		row.SteadyNsPerStep = m.bestDrain
		b.add(row)
	}
	return nil
}

// summingProbe consumes the series without allocating, so the obs rows
// measure the probe path itself rather than a consumer's copies.
type summingProbe struct {
	steps, rounds, phases int
	deflections           int
}

func (p *summingProbe) OnStep(s *obs.StepStats) {
	p.steps++
	for _, d := range s.Deflections {
		p.deflections += d
	}
}
func (p *summingProbe) OnRound(*obs.StepStats) { p.rounds++ }
func (p *summingProbe) OnPhase(*obs.StepStats) { p.phases++ }

// obsMinSteps is how many steps an obs row accumulates: its problems
// complete in tens of steps, far too short for one run to time.
const obsMinSteps = 1 << 14

// recordObs measures the instrumentation overhead on the dense
// butterfly (the steady-state zero-alloc shape) and the hard mesh, in
// three modes: "disabled" (no probe or sink), "probe" (an
// obs.Collector feeding a summing probe) and "probe+lifecycle"
// (additionally a 4096-event lifecycle ring receiving every engine
// event). Each mode first runs attached for obsMinSteps/2 unmeasured
// steps, so the collector's reusable backings exist before
// measurement; then Reset + re-attach + run repeats until obsMinSteps
// accumulate. Only the runs are timed; the resets happen identically
// in every mode anyway.
func recordObs(b *LayerBench) error {
	denseK, _, meshN := engineSizes(b.Scale)
	cases := []struct {
		name  string
		build func() (*workload.Problem, error)
	}{
		{fmt.Sprintf("butterfly(%d)-dense", denseK), func() (*workload.Problem, error) { return denseButterfly(denseK, "bench-obs-dense") }},
		{fmt.Sprintf("mesh(%d)-hard", meshN), func() (*workload.Problem, error) { return workload.MeshHard(meshN) }},
	}
	for _, c := range cases {
		p, err := c.build()
		if err != nil {
			return fmt.Errorf("bench: %s: %w", c.name, err)
		}
		e := sim.NewEngine(p, baselines.NewGreedy(), 1)
		coll := obs.NewCollector(nil, &summingProbe{})
		ring := obs.NewLifecycle(4096)
		modes := []struct {
			name   string
			attach func(*sim.Engine)
		}{
			{"disabled", func(*sim.Engine) {}},
			{"probe", func(e *sim.Engine) { coll.Attach(e) }},
			{"probe+lifecycle", func(e *sim.Engine) {
				coll.Attach(e)
				ring.Attach(e)
			}},
		}
		var disabled float64
		for _, mode := range modes {
			// accumulate resets, attaches and runs e until want steps.
			accumulate := func(want int) (rep, error) {
				var r rep
				for r.steps < want {
					e.Reset(1)
					mode.attach(e)
					start := time.Now()
					steps, done := e.Run(1 << 22)
					r.wall += time.Since(start)
					if !done {
						return r, fmt.Errorf("bench: %s (obs %s) did not complete within budget", c.name, mode.name)
					}
					r.steps += steps
				}
				return r, nil
			}
			if _, err := accumulate(obsMinSteps / 2); err != nil {
				return err
			}
			m, err := measure(1, false, nil, func() (rep, error) { return accumulate(obsMinSteps) })
			if err != nil {
				return err
			}
			row := LayerRow{
				Layer: LayerObs, Scenario: c.name + "/" + mode.name,
				Nodes: p.G.NumNodes(), Edges: p.G.NumEdges(), Packets: p.N(),
				Workers: 1,
			}
			m.fill(&row, "accumulated-runs")
			if mode.name == "disabled" {
				disabled = row.NsPerStep
			} else if disabled > 0 {
				row.OverheadPct = 100 * (row.NsPerStep - disabled) / disabled
			}
			b.add(row)
		}
	}
	return nil
}

// stepCost is the per-step figure used for speedup comparisons: the
// steady rate when the row has a steady segment, the whole-run rate
// otherwise.
func stepCost(r LayerRow) float64 {
	if r.SteadyNsPerStep > 0 {
		return r.SteadyNsPerStep
	}
	return r.NsPerStep
}

// annotateParallelEfficiency fills SpeedupVs1 and ParallelEfficiency on
// every workers>1 row from the workers=1 row of the same layer and
// scenario in the same document.
func annotateParallelEfficiency(b *LayerBench) {
	seq := make(map[[2]string]float64)
	for _, r := range b.Rows {
		if r.Workers == 1 {
			seq[[2]string{r.Layer, r.Scenario}] = stepCost(r)
		}
	}
	for i := range b.Rows {
		r := &b.Rows[i]
		base := seq[[2]string{r.Layer, r.Scenario}]
		if r.Workers <= 1 || base <= 0 {
			continue
		}
		if cost := stepCost(*r); cost > 0 {
			r.SpeedupVs1 = base / cost
			r.ParallelEfficiency = r.SpeedupVs1 / float64(r.Workers)
		}
	}
}

// rowKey names a row for matching across documents and in messages.
func rowKey(r LayerRow) string {
	return fmt.Sprintf("%s/%s/workers=%d", r.Layer, r.Scenario, r.Workers)
}

// CheckStrictAllocs is the zero-allocation gate: every steady-state
// row must record exactly 0 allocs/step.
func CheckStrictAllocs(b *LayerBench) error {
	for _, r := range b.Rows {
		if r.SteadyState && r.AllocsPerStep > 0 {
			return fmt.Errorf("bench: steady-state row %s allocated %.4f allocs/step; want 0", rowKey(r), r.AllocsPerStep)
		}
	}
	return nil
}

// Compare is the regression gate: every row present (by layer,
// scenario and workers) in both the baseline and the current document
// must not regress ns_per_step by more than tolerance (fractional;
// 0.10 = 10%). A parallel row gates only when the two documents agree
// on GOMAXPROCS; otherwise its wall-clock difference is the machine,
// not the code, and a warning notes the skip. Rows only present on one
// side are ignored, and baselines of a different Scale compare nothing
// (the topologies differ) with a warning.
func Compare(baseline, current *LayerBench, tolerance float64) ([]string, error) {
	if baseline.Scale != current.Scale {
		return []string{fmt.Sprintf("baseline scale %d != current scale %d; nothing compared", baseline.Scale, current.Scale)}, nil
	}
	base := make(map[string]LayerRow, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[rowKey(r)] = r
	}
	var warnings []string
	for _, r := range current.Rows {
		b, ok := base[rowKey(r)]
		if !ok || b.NsPerStep <= 0 {
			continue
		}
		if r.Workers > 1 && b.Gomaxprocs != r.Gomaxprocs {
			warnings = append(warnings, fmt.Sprintf("row %s: baseline gomaxprocs=%d vs current %d; parallel wall-clock not comparable, skipped",
				rowKey(r), b.Gomaxprocs, r.Gomaxprocs))
			continue
		}
		if r.NsPerStep > b.NsPerStep*(1+tolerance) {
			return warnings, fmt.Errorf("bench: regression on %s: %.2f ns/step vs baseline %.2f (+%.1f%%, tolerance %.0f%%)",
				rowKey(r), r.NsPerStep, b.NsPerStep, 100*(r.NsPerStep/b.NsPerStep-1), 100*tolerance)
		}
	}
	return warnings, nil
}

// CheckParallelSpeedup is the multi-core gate: the document must hold
// an engine-layer workers=workers row (the sparse butterfly sweep)
// whose SpeedupVs1 meets minSpeedup. It errors when no such row exists
// (e.g. the host could not schedule that many workers), so a
// misconfigured runner cannot silently pass.
func CheckParallelSpeedup(b *LayerBench, workers int, minSpeedup float64) error {
	found := false
	for _, r := range b.Rows {
		if r.Layer != LayerEngine || r.Workers != workers {
			continue
		}
		found = true
		if r.SpeedupVs1 <= 0 {
			return fmt.Errorf("bench: row %s has no speedup_vs_1 (missing workers=1 counterpart?)", rowKey(r))
		}
		if r.SpeedupVs1 < minSpeedup {
			return fmt.Errorf("bench: %s reached only %.2fx vs workers=1 (efficiency %.2f); gate requires ≥%.2fx",
				rowKey(r), r.SpeedupVs1, r.ParallelEfficiency, minSpeedup)
		}
	}
	if !found {
		return fmt.Errorf("bench: no engine workers=%d row recorded (gomaxprocs=%d, skipped_workers=%v); cannot certify parallel speedup",
			workers, b.GOMAXPROCS, b.SkippedWorkers)
	}
	return nil
}

// Read loads a recorded BENCH_layers.json.
func Read(path string) (*LayerBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b LayerBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &b, nil
}

// Write writes b to path as indented JSON.
func Write(path string, b *LayerBench) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
