package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"hotpotato/internal/campaign"
	"hotpotato/internal/persist"
	"hotpotato/internal/stats"
)

// gridCells is the size of the benchmark's grid: 4 topologies × 4
// loads (transpose only on the butterfly) × 3 fault columns × 4
// routers.
const gridCells = 156

// gridTrials is the ensemble size per cell: more than the Full grid's
// 32, so one grid is a few host seconds of simulation.
const gridTrials = 48

// gridReplicates is how many independent replicates of the grid (one
// base seed each) a run cycles through, round by round. The random:24
// DAG and the hotspot and random loads come from the base seed, and
// one draw of them moved a run's throughput by up to ±14%; four
// replicates per run average that out. A timed run makes whole
// multiples of gridReplicates rounds, so every replicate weighs the
// same in its metrics.
const gridReplicates = 4

// replicateSeed is round r's campaign base seed.
func replicateSeed(seed int64, r int) int64 {
	return seed*gridReplicates + int64(r%gridReplicates)
}

// resumesPerRound is how many checkpoint-resume cycles follow each
// grid; restart_s is their median.
const resumesPerRound = 5

// gridSpec is the benchmark's own copy of the campaign.Full axes, so a
// change to Full does not silently change the benchmark.
func gridSpec(seed int64, trials int) *campaign.Spec {
	return &campaign.Spec{
		Name:     "e2ebench-grid",
		Topos:    []string{"butterfly:6", "mesh:8", "hypercube:4", "random:24"},
		Loads:    []string{"hotspot:48x2", "random:0.5", "fullthroughput", "transpose"},
		Faults:   []string{"", "flap:period=50,down=5,rate=0.2", "ge:down=0.05,burst=4"},
		Routers:  []string{"frame", "greedy-hp", "greedy-ftg", "rand-greedy-hp"},
		Trials:   trials,
		BaseSeed: seed,
	}
}

// cellRun is one cell's outcome and host time in a replicate.
type cellRun struct {
	replicate int
	cell      persist.CampaignCell
	dur       time.Duration
}

// gridPass aggregates rounds of the grid.
type gridPass struct {
	rounds    int
	setup     sample // s
	restart   sample // resume cycles, s
	wall      time.Duration
	cellsDone int
	attempted int
	failed    int
	problems  []string
	docHash   []uint64           // per round
	doc       *campaign.Document // round 0 (replicate 0)
	runs      []cellRun          // every round, grid order

	// Traced passes only.
	stages   map[string]*sample // checkpoint encode/decode ms, size KB
	counters runtimeCounters    // Run phases only
}

// completion is one "cell done" progress line of campaign.Run.
type completion struct {
	key string
	at  time.Time
}

// interval is a cell's run on a worker.
type interval struct{ begin, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.begin) }

// cellIntervals reconstructs each cell's run from the completion order
// campaign.Run reports through RunConfig.Logf. Run feeds cells in grid
// order to a pool of workers over an unbuffered channel, and a worker
// takes its next cell right after handing in a result, so the cell at
// feed position j >= workers starts at the (j-workers)-th completion
// and the first workers cells start with the run.
func cellIntervals(order []string, done []completion, start time.Time, workers int) (map[string]interval, error) {
	if len(done) != len(order) {
		return nil, fmt.Errorf("%d completions for %d cells", len(done), len(order))
	}
	at := make(map[string]time.Time, len(done))
	for _, c := range done {
		at[c.key] = c.at
	}
	workers = min(workers, len(order))
	out := make(map[string]interval, len(order))
	for j, key := range order {
		end, ok := at[key]
		if !ok {
			return nil, fmt.Errorf("cell %s never completed", key)
		}
		begin := start
		if j >= workers {
			begin = done[j-workers].at
		}
		out[key] = interval{begin, end}
	}
	return out, nil
}

// runGridPass runs grid rounds: whole cycles of gridReplicates rounds
// until budget has elapsed (at least one cycle), or exactly fixedRounds
// when that is positive.
func runGridPass(seed int64, trials, workers int, workDir string, budget time.Duration, fixedRounds int, tr *tracer) (*gridPass, error) {
	p := &gridPass{}
	if tr != nil {
		p.stages = map[string]*sample{"encode": {}, "decode": {}, "kb": {}}
	}
	start := time.Now()
	for r := 0; ; r++ {
		if fixedRounds > 0 && r == fixedRounds {
			break
		}
		if fixedRounds <= 0 && r > 0 && r%gridReplicates == 0 && time.Since(start) >= budget {
			break
		}
		if err := p.round(seed, trials, workers, workDir, r, tr); err != nil {
			return nil, fmt.Errorf("campaign-grid round %d: %w", r, err)
		}
		p.rounds++
	}
	for r := gridReplicates; r < len(p.docHash); r++ {
		if ref := r % gridReplicates; p.docHash[r] != p.docHash[ref] {
			p.problems = append(p.problems, fmt.Sprintf("determinism: round %d cell summaries hash %x, round %d (same replicate) %x", r, p.docHash[r], ref, p.docHash[ref]))
		}
	}
	return p, nil
}

func (p *gridPass) round(seed int64, trials, workers int, workDir string, r int, tr *tracer) error {
	// Every round starts from a collected heap, so set-up and the
	// timed phase do not inherit the previous round's garbage.
	runtime.GC()
	t0 := time.Now()
	spec := gridSpec(replicateSeed(seed, r), trials)
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	if len(cells) != gridCells {
		return fmt.Errorf("grid has %d cells, want %d", len(cells), gridCells)
	}
	// Warm-up: one single-trial cell per topology builds each network
	// kind once before the timed grid.
	warm := *spec
	warm.Trials = 1
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Topo] {
			seen[c.Topo] = true
			if _, err := campaign.ExecuteCell(&warm, c); err != nil {
				return fmt.Errorf("warm-up %s: %w", c.Key(), err)
			}
		}
	}
	p.setup.add(time.Since(t0).Seconds())

	var mu sync.Mutex
	var done []completion
	logf := func(format string, args ...any) {
		if !strings.Contains(format, " done ") || len(args) < 2 {
			return
		}
		if key, ok := args[1].(string); ok {
			at := time.Now()
			mu.Lock()
			done = append(done, completion{key, at})
			mu.Unlock()
		}
	}
	var c0 runtimeCounters
	if tr != nil {
		c0 = readCounters()
	}
	start := time.Now()
	doc, err := campaign.Run(spec, campaign.RunConfig{Workers: workers, Logf: logf})
	end := time.Now()
	if tr != nil {
		p.counters = p.counters.plus(readCounters().since(c0))
	}
	p.attempted += len(cells)
	mu.Lock()
	completed := done
	mu.Unlock()
	if err != nil {
		// Run stops at the first failed cell; every cell it did not
		// complete counts as failed.
		p.failed += len(cells) - len(completed)
		p.problems = append(p.problems, fmt.Sprintf("round %d: %v", r, err))
		return nil
	}
	p.cellsDone += len(doc.Cells)
	p.wall += end.Sub(start)
	order := make([]string, len(cells))
	for i, c := range cells {
		order[i] = c.Key()
	}
	ivs, err := cellIntervals(order, completed, start, workers)
	if err != nil {
		return err
	}
	rs := tr.add("campaign.run", start, end, -1, int32(r))
	var runs []cellRun
	for i := range doc.Cells {
		c := &doc.Cells[i]
		iv := ivs[c.Key]
		runs = append(runs, cellRun{replicate: r % gridReplicates, cell: *c, dur: iv.dur()})
		if tr != nil {
			tr.add("campaign.cell "+c.Key, iv.begin, iv.end, rs, int32(r))
		}
		if err := c.Validate(); err != nil {
			p.problems = append(p.problems, err.Error())
		}
		if c.Expected != c.Trials*c.Packets || c.Trials != trials {
			p.problems = append(p.problems, fmt.Sprintf("cell %s: expected %d for %d trials × %d packets", c.Key, c.Expected, c.Trials, c.Packets))
		}
	}
	if len(doc.Cells) != gridCells {
		p.problems = append(p.problems, fmt.Sprintf("round %d: document holds %d cells, want %d", r, len(doc.Cells), gridCells))
	}
	h, err := cellsHash(doc.Cells)
	if err != nil {
		return err
	}
	p.docHash = append(p.docHash, h)
	p.runs = append(p.runs, runs...)
	if r == 0 {
		p.doc = doc
	}
	return p.resumeCycles(spec, doc, h, workers, workDir, r, tr)
}

// cellMedian is one (replicate, cell)'s run time, as its median over
// the rounds of its replicate, and its absorbed packets.
type cellMedian struct {
	ms       float64
	absorbed int
}

// cellMedians takes every (replicate, cell) run at its median time.
// Rounds of one replicate run the same cells, so a cell's time differs
// between them only by host noise, which the median filters.
func (p *gridPass) cellMedians() []cellMedian {
	type cellID struct {
		replicate int
		key       string
	}
	byKey := map[cellID]*sample{}
	absorbed := map[cellID]int{}
	var ids []cellID
	for _, r := range p.runs {
		id := cellID{r.replicate, r.cell.Key}
		s := byKey[id]
		if s == nil {
			s = &sample{}
			byKey[id] = s
			ids = append(ids, id)
		}
		s.add(float64(r.dur.Nanoseconds()) / 1e6)
		absorbed[id] = r.cell.Absorbed
	}
	out := make([]cellMedian, len(ids))
	for i, id := range ids {
		out[i] = cellMedian{byKey[id].median(), absorbed[id]}
	}
	return out
}

// latency is the cell latency sample: one median time per (replicate,
// cell), in ms.
func (p *gridPass) latency() *sample {
	s := &sample{}
	for _, c := range p.cellMedians() {
		s.add(c.ms)
	}
	return s
}

// deliveredPPS is the grid's throughput: packets absorbed over all
// trials of all cells of every replicate run, over the grids' host
// time, where each cell runs for its median time and the workers share
// the total.
func (p *gridPass) deliveredPPS(workers int) float64 {
	total, ms := 0, 0.0
	for _, c := range p.cellMedians() {
		total += c.absorbed
		ms += c.ms
	}
	return ratio(float64(total), ms/1e3/float64(workers))
}

// cellsHash fingerprints the cell summaries (every field is a pure
// function of the spec and the cell).
func cellsHash(cells []persist.CampaignCell) (uint64, error) {
	data, err := json.Marshal(cells)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// resumeCycles is the campaign's restart path: the finished grid is
// checkpointed, then campaign.Run resumes from the checkpoint (reading
// and validating every cell, running none) and must return the same
// document.
func (p *gridPass) resumeCycles(spec *campaign.Spec, doc *campaign.Document, want uint64, workers int, workDir string, r int, tr *tracer) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(workDir, fmt.Sprintf("checkpoint-%d.jsonl", spec.BaseSeed))
	defer os.Remove(path)
	t0 := time.Now()
	var buf bytes.Buffer
	cw, err := persist.NewCampaignWriter(&buf, persist.CampaignHeader{
		Version:  persist.CampaignFormatVersion,
		Kind:     persist.CampaignKind,
		Name:     spec.Name,
		SpecHash: spec.Fingerprint(),
	}, true)
	if err != nil {
		return err
	}
	for i := range doc.Cells {
		if err := cw.Append(&doc.Cells[i]); err != nil {
			return err
		}
	}
	t1 := time.Now()
	if _, _, err := persist.ReadCampaignCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("checkpoint does not read back: %w", err)
	}
	t2 := time.Now()
	if tr != nil {
		p.stages["encode"].add(float64(t1.Sub(t0).Nanoseconds()) / 1e6)
		p.stages["decode"].add(float64(t2.Sub(t1).Nanoseconds()) / 1e6)
		p.stages["kb"].add(float64(buf.Len()) / 1024)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	for i := 0; i < resumesPerRound; i++ {
		p.attempted++
		start := time.Now()
		back, err := campaign.Run(spec, campaign.RunConfig{Workers: workers, Checkpoint: path})
		end := time.Now()
		if err != nil {
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("round %d resume %d: %v", r, i, err))
			continue
		}
		p.restart.add(end.Sub(start).Seconds())
		tr.add("campaign.resume", start, end, -1, int32(r))
		if h, err := cellsHash(back.Cells); err != nil || h != want {
			p.problems = append(p.problems, fmt.Sprintf("round %d resume %d: resumed document differs from the run it resumed", r, i))
		}
	}
	return nil
}

// bootstrapMs times the two stats.BootstrapQuantileCI calls a cell
// makes (median and p99, 500 resamples) on a seeded sample of the
// cell's successful-trial count; the cost depends on the sample size
// and resample count, not on the values.
func bootstrapMs(cells []persist.CampaignCell, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var total time.Duration
	n := 0
	for i := range cells {
		c := &cells[i]
		if c.Succeeded == 0 {
			continue
		}
		xs := make([]float64, c.Succeeded)
		for j := range xs {
			xs[j] = c.StepsMean * (0.5 + rng.Float64())
		}
		start := time.Now()
		a := stats.BootstrapQuantileCI(xs, 0.5, 500, uint64(seed)+1, 0.95)
		b := stats.BootstrapQuantileCI(xs, 0.99, 500, uint64(seed)+2, 0.95)
		total += time.Since(start)
		sinkFloat += a.Lo + b.Hi
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / 1e6 / float64(n)
}

var sinkFloat float64
